"""Calling ``AdvisorService.advise`` with a document: it takes the
request body's bytes and returns the encoded response."""

from __future__ import annotations

import asyncio
import json

from repro.service.app import AdvisorService


def body(doc) -> bytes:
    """The body a client sends for ``doc``."""
    return json.dumps(doc).encode()


async def advise_doc(svc: AdvisorService, doc) -> dict:
    """``svc.advise`` on ``doc``'s body, its response decoded."""
    return json.loads(await svc.advise(body(doc)))


def ask(svc: AdvisorService, doc) -> dict:
    """:func:`advise_doc` on a fresh event loop."""
    return asyncio.run(advise_doc(svc, doc))
