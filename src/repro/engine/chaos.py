"""Fault-injecting evaluator harness for engine robustness testing.

Controlled entirely by one environment variable so injection reaches
every process of a sweep -- the CLI, pool workers (which inherit the
environment), and CI shells -- without any API plumbing:

    REPRO_ENGINE_CHAOS="crash=0.1,hang=0.05,flaky=0.2,corrupt=0.1,hang_s=30"

Modes (all rates are per-task probabilities in ``[0, 1]``):

- ``crash``    the worker SIGKILLs itself mid-task (a hard worker death
  the supervisor must detect and recover from);
- ``hang``     the worker sleeps ``hang_s`` wall-clock seconds before
  evaluating (exceeds any sane ``task_timeout``, so the supervisor's
  deadline kill fires);
- ``flaky``    the evaluator raises :class:`ChaosInjectedError` (an
  ordinary exception the retry path absorbs);
- ``corrupt``  cache records for matching keys are written corrupted
  (truncated or checksum-mangled), exercising the read-side integrity
  detection and re-evaluation path.

Injection decisions are **deterministic**: each is a pure hash of the
request's content key, the mode name, and the attempt number, so a chaos
run is replayable and -- because faults only fire while ``attempt <
attempts`` (default: the first attempt only) -- a supervised sweep with
``max_attempts >= 2`` always recovers and its results stay bitwise
identical to a clean run.

In serial (in-process) execution only ``flaky`` fires: crashing or
hanging the sole process is the operator's domain (``timeout -s KILL``),
not the harness's.  The engine's in-process vectorized pass is one
attempt 0 for all its requests: a ``flaky`` hit on any of them fails the
whole pass, which falls back to the supervisor (:func:`maybe_fail_pass`).
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from dataclasses import dataclass

#: The environment variable the harness reads, e.g.
#: ``crash=0.1,hang=0.05,flaky=0.2,corrupt=0.1,hang_s=30,attempts=1``.
CHAOS_ENV = "REPRO_ENGINE_CHAOS"

#: Modes whose rates may appear in the spec.
MODES = ("crash", "hang", "flaky", "corrupt")


class ChaosInjectedError(RuntimeError):
    """The flaky-mode injected evaluator failure."""


@dataclass(frozen=True)
class ChaosSpec:
    """Parsed injection rates and knobs."""

    crash: float = 0.0
    hang: float = 0.0
    flaky: float = 0.0
    corrupt: float = 0.0
    hang_s: float = 30.0  # how long a hung task sleeps
    attempts: int = 1  # inject only while attempt < attempts

    @property
    def active(self) -> bool:
        return any(getattr(self, m) > 0 for m in MODES)


def parse_spec(text: str) -> ChaosSpec:
    """Parse ``"crash=0.1,hang_s=5"``-style specs (unknown keys rejected)."""
    fields: dict[str, float | int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, value = part.partition("=")
        name = name.strip()
        if name in MODES or name == "hang_s":
            fields[name] = float(value)
        elif name == "attempts":
            fields[name] = int(value)
        else:
            raise ValueError(f"unknown {CHAOS_ENV} field {name!r} in {text!r}")
    return ChaosSpec(**fields)  # type: ignore[arg-type]


_CACHED: tuple[str | None, ChaosSpec | None] = (None, None)


def active_spec() -> ChaosSpec | None:
    """The spec from the environment, or None when chaos is off."""
    global _CACHED
    text = os.environ.get(CHAOS_ENV)
    if not text:
        return None
    if _CACHED[0] != text:
        _CACHED = (text, parse_spec(text))
    return _CACHED[1]


def _uniform(key: str, mode: str, attempt: int) -> float:
    """Deterministic uniform draw in [0, 1) for one (task, mode, attempt)."""
    digest = hashlib.sha256(f"{key}:{mode}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def maybe_inject(key: str, attempt: int, serial: bool = False) -> None:
    """Fire at most one execution fault for this (task, attempt).

    Called by the supervisor's worker loop (and its serial fallback) right
    before evaluation.  ``key`` is the request's content key; ``attempt``
    is 0-based.  Precedence: crash > hang > flaky.
    """
    spec = active_spec()
    if spec is None or not spec.active or attempt >= spec.attempts:
        return
    if not serial:
        if spec.crash > 0 and _uniform(key, "crash", attempt) < spec.crash:
            os.kill(os.getpid(), signal.SIGKILL)  # never returns
        if spec.hang > 0 and _uniform(key, "hang", attempt) < spec.hang:
            time.sleep(spec.hang_s)
    if spec.flaky > 0 and _uniform(key, "flaky", attempt) < spec.flaky:
        raise ChaosInjectedError(
            f"injected flaky failure (attempt {attempt}, key {key[:12]})"
        )


def maybe_fail_pass(keys) -> None:
    """Flaky mode for a vectorized pass, one attempt 0 for all ``keys``:
    raise if any key's draw hits.  Reads the spec once per pass."""
    spec = active_spec()
    if spec is not None and spec.flaky > 0 and spec.attempts >= 1:
        for key in keys:
            if _uniform(key, "flaky", 0) < spec.flaky:
                raise ChaosInjectedError(f"injected flaky failure (pass, key {key[:12]})")


def maybe_corrupt_payload(key: str, payload: str) -> str:
    """Corrupt-cache mode: mangle a cache record about to hit the disk.

    Half the matching keys get a truncated record (a torn write), the
    other half a flipped checksum digit (bit rot) -- the two corruption
    classes the cache's read-side validation must catch.
    """
    spec = active_spec()
    if spec is None or spec.corrupt <= 0:
        return payload
    u = _uniform(key, "corrupt", 0)
    if u >= spec.corrupt:
        return payload
    if u < spec.corrupt / 2 or '"checksum"' not in payload:
        return payload[: max(1, len(payload) // 2)]
    i = payload.index('"checksum"')
    j = payload.index(":", i) + 3  # first hex digit of the value
    flipped = "0" if payload[j] != "0" else "f"
    return payload[:j] + flipped + payload[j + 1 :]
