"""Content-addressed cache keys for the placement service.

A key names the *complete* input of the analysis half of the pipeline:

``key = sha256(frame(program) ‖ frame(spec) ‖ frame(flags) ‖ frame(salt))``

where ``frame(x)`` is the UTF-8 bytes of ``x`` prefixed with their
length (length-prefixing keeps field boundaries unambiguous — no way to
shift bytes between the program and the spec and collide).  The fields:

* **program** — the FORTRAN source, byte-for-byte.  No normalization:
  the key is over the literal request, and canonicalizing whitespace is
  the client's business.
* **spec** — the partitioning data file text, byte-for-byte (it names
  the pattern, so the pattern needs no separate field).
* **flags** — the analysis knobs, canonicalized: unknown names are
  rejected, defaults are filled in, and the result is serialized as
  sorted-key JSON.  ``{}`` and ``{"split_phase": False}`` therefore map
  to the *same* key, and dict insertion order never matters.
* **salt** — the code-version salt (:func:`code_version`): a digest of
  every ``repro`` source file.  Any change to the tool's code (not just
  the analysis modules — deliberately conservative) moves every key, so
  a stale cache can never serve artifacts produced by different code.

>>> k1 = cache_key("program", "spec", {})
>>> k2 = cache_key("program", "spec", {"split_phase": False})
>>> k1 == k2                        # defaults are part of the canon
True
>>> k1 == cache_key("program ", "spec", {})   # any byte matters
False
>>> len(k1)
64
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Optional

from ..errors import ReproError
from ..placement.cost import CostModel, is_price

#: analysis flags that participate in the key, with their defaults: the
#: enumerate_placements knobs, every CostModel field, and the pre-flight
#: check's model-checker switch (see docs/service.md)
FLAG_DEFAULTS: dict[str, object] = {
    "split_phase": False,
    "limit": None,
    **{f.name: f.default for f in dataclasses.fields(CostModel)},
    "model_check": False,
}

_CODE_VERSION: Optional[str] = None


def _flag_value(name: str, value):
    """One flag's canonical value; ``ReproError`` for a value of the
    wrong type or range.  Values that mean the same thing share a key:
    ``1`` and ``True``, ``100`` and ``100.0``, ``4`` and ``4.0``."""
    default = FLAG_DEFAULTS[name]
    if isinstance(default, bool):
        if isinstance(value, bool) or (type(value) is int
                                       and value in (0, 1)):
            return bool(value)
        expected = "a boolean (or 0/1)"
    elif isinstance(default, float):
        if is_price(value):
            return float(value)
        expected = "a finite number >= 0"
    else:  # limit
        if value is None:
            return None
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if type(value) is int and value >= 1:
            return value
        expected = "null or an integer >= 1"
    raise ReproError(f"bad analysis flag {name!r}: {value!r} "
                     f"(expected {expected})")


def canonical_flags(flags: Optional[dict]) -> dict:
    """Fill defaults and validate; returns a plain complete flag dict."""
    if flags is None:
        flags = {}
    if not isinstance(flags, dict):
        raise ReproError(f"bad analysis flags {flags!r}: expected an "
                         f"object of flag names to values")
    unknown = sorted(set(flags) - set(FLAG_DEFAULTS))
    if unknown:
        raise ReproError(
            f"unknown analysis flag(s) {unknown} — known flags: "
            f"{sorted(FLAG_DEFAULTS)}")
    return {name: _flag_value(name, flags[name]) if name in flags
            else default for name, default in FLAG_DEFAULTS.items()}


def _dumps(flags: dict) -> str:
    return json.dumps(flags, sort_keys=True, separators=(",", ":"))


def flags_json(flags: Optional[dict]) -> str:
    """The canonical JSON the key hashes (sorted keys, no whitespace)."""
    return _dumps(canonical_flags(flags))


def code_version() -> str:
    """Digest of every ``repro`` source file — the invalidation salt.

    Computed once per process by walking the installed package (sorted
    by relative path, so the walk order never matters) and hashing file
    contents.  ``REPRO_CODE_VERSION`` in the environment overrides it —
    the tests use that to *prove* the salt invalidates, and frozen
    deployments can pin a release id instead of paying the walk.
    """
    global _CODE_VERSION
    override = os.environ.get("REPRO_CODE_VERSION")
    if override:
        return override
    if _CODE_VERSION is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
        h = hashlib.sha256()
        entries = []
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames
                                 if d != "__pycache__")
            for name in filenames:
                if name.endswith(".py"):
                    full = os.path.join(dirpath, name)
                    entries.append((os.path.relpath(full, root), full))
        for rel, full in sorted(entries):
            h.update(rel.encode())
            with open(full, "rb") as fh:
                h.update(fh.read())
        _CODE_VERSION = h.hexdigest()
    return _CODE_VERSION


def _frame(data: bytes) -> bytes:
    return len(data).to_bytes(8, "big") + data


def cache_key(program: str, spec_text: str, flags: Optional[dict] = None,
              salt: Optional[str] = None) -> str:
    """The content-addressed key of one analysis request (64 hex chars)."""
    return canonical_key(program, spec_text, canonical_flags(flags), salt)


def canonical_key(program: str, spec_text: str, flags: dict,
                  salt: Optional[str] = None) -> str:
    """:func:`cache_key` of flags :func:`canonical_flags` already
    returned: they are hashed as they are, not validated again."""
    h = hashlib.sha256()
    h.update(b"repro-placement-v1\x00")
    h.update(_frame(program.encode("utf-8")))
    h.update(_frame(spec_text.encode("utf-8")))
    h.update(_frame(_dumps(flags).encode("utf-8")))
    h.update(_frame((salt if salt is not None else code_version())
                    .encode("utf-8")))
    return h.hexdigest()
