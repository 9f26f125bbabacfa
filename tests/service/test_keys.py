"""Content-addressed cache keys: stability and sensitivity.

The service's entire correctness story rests on the key: it must be a
pure function of (program, spec, flags, code version) — identical in
every process — and it must move whenever *any* of those inputs moves.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import TESTIV_SOURCE
from repro.errors import ReproError
from repro.service.keys import (
    FLAG_DEFAULTS,
    cache_key,
    canonical_flags,
    code_version,
    flags_json,
)
from repro.spec import spec_for_testiv

SPEC_TEXT = spec_for_testiv().serialize()


class TestCanonicalFlags:
    def test_defaults_fill_in(self):
        assert canonical_flags(None) == canonical_flags({})
        assert canonical_flags({}) == dict(FLAG_DEFAULTS)

    def test_explicit_default_is_identity(self):
        assert canonical_flags({"split_phase": False}) == canonical_flags({})
        assert canonical_flags({"alpha": 100.0}) == canonical_flags(None)

    def test_unknown_flag_rejected(self):
        with pytest.raises(ReproError):
            canonical_flags({"spilt_phase": True})  # typo must not hash

    def test_numeric_normalization(self):
        # ints and floats that mean the same value hash the same
        assert flags_json({"alpha": 100}) == flags_json({"alpha": 100.0})
        assert flags_json({"split_phase": 1}) == \
            flags_json({"split_phase": True})
        assert flags_json({"limit": 4.0}) == flags_json({"limit": 4})
        assert flags_json({"model_check": 1}) == \
            flags_json({"model_check": True})

    @pytest.mark.parametrize("flags", [
        None, {}, {"alpha": 100}, {"split_phase": 1, "limit": 4.0},
        {"model_check": 1, "beta": 0, "loss_rate": 0.25},
        {"iterations": 10 ** 6, "kernel_size": 2.5, "limit": None},
    ])
    def test_canonical_flags_are_a_fixed_point(self, flags):
        # a request's flags are canonicalised once by place() and once
        # more by cache_key: the second pass must change nothing
        once = canonical_flags(flags)
        assert canonical_flags(once) == once
        assert flags_json(once) == flags_json(flags)

    @pytest.mark.parametrize("flag,value", [
        ("split_phase", "false"),   # a non-empty string is truthy
        ("split_phase", 2),
        ("model_check", None),
        ("limit", "abc"),
        ("limit", -3),
        ("limit", 0),
        ("limit", 2.5),
        ("limit", True),
        ("kernel_size", "big"),
        ("alpha", True),
        ("beta", float("nan")),
        ("gamma", float("inf")),
        ("iterations", 10 ** 400),
        ("loss_rate", [0.1]),
        ("alpha", -5),
    ])
    def test_bad_value_rejected(self, flag, value):
        with pytest.raises(ReproError,
                           match=f"^bad analysis flag {flag!r}: "):
            canonical_flags({flag: value})

    @pytest.mark.parametrize("flags", [[["limit", 4]], "split_phase", 7])
    def test_flags_must_be_an_object(self, flags):
        with pytest.raises(ReproError, match="^bad analysis flags "):
            canonical_flags(flags)

    def test_default_flags_json_is_pinned(self):
        # every cache key hashes this string: deriving the defaults from
        # CostModel's fields must not move a single byte of it
        assert flags_json({}) == (
            '{"alpha":100.0,"beta":0.05,"gamma":1.0,"iterations":50.0,'
            '"kernel_size":1000.0,"limit":null,"loss_rate":0.0,'
            '"model_check":false,"overlap_fraction":0.1,"split_phase":false}')

    def test_defaults_match_the_signatures_they_mirror(self):
        import dataclasses
        import inspect

        from repro.driver.pipeline import check
        from repro.placement import enumerate_placements
        from repro.placement.cost import CostModel

        # every defaulted keyword of the front door is a flag (``model``
        # is spelled out field by field), so a new one cannot miss the key
        mirrored = {
            name: p.default
            for name, p in inspect.signature(
                enumerate_placements).parameters.items()
            if p.default is not p.empty and name != "model"}
        params = inspect.signature(check).parameters
        mirrored["model_check"] = params["model_check"].default
        cost = {f.name: f.default for f in dataclasses.fields(CostModel)}
        assert not set(mirrored) & set(cost)
        assert {**mirrored, **cost} == FLAG_DEFAULTS
        assert len(FLAG_DEFAULTS) == 10


class TestKeySensitivity:
    def test_stable_within_process(self):
        assert cache_key(TESTIV_SOURCE, SPEC_TEXT) == \
            cache_key(TESTIV_SOURCE, SPEC_TEXT)

    def test_program_byte_moves_key(self):
        base = cache_key(TESTIV_SOURCE, SPEC_TEXT)
        assert cache_key(TESTIV_SOURCE + " ", SPEC_TEXT) != base
        assert cache_key(TESTIV_SOURCE.lower(), SPEC_TEXT) != base

    def test_spec_byte_moves_key(self):
        base = cache_key(TESTIV_SOURCE, SPEC_TEXT)
        assert cache_key(TESTIV_SOURCE, SPEC_TEXT + "\n") != base

    @pytest.mark.parametrize("flag,value", [
        ("split_phase", True),
        ("limit", 4),
        ("alpha", 99.0),
        ("beta", 0.06),
        ("gamma", 2.0),
        ("iterations", 51.0),
        ("kernel_size", 999.0),
        ("overlap_fraction", 0.2),
        ("loss_rate", 0.01),
        ("model_check", True),
    ])
    def test_every_flag_moves_key(self, flag, value):
        assert value != FLAG_DEFAULTS[flag]
        base = cache_key(TESTIV_SOURCE, SPEC_TEXT)
        assert cache_key(TESTIV_SOURCE, SPEC_TEXT, {flag: value}) != base

    def test_salt_moves_key(self):
        base = cache_key(TESTIV_SOURCE, SPEC_TEXT)
        assert cache_key(TESTIV_SOURCE, SPEC_TEXT, salt="other") != base

    def test_no_frame_confusion(self):
        # moving a byte across the program/spec boundary must not collide
        assert cache_key("ab", "c") != cache_key("a", "bc")

    @given(st.text(max_size=40), st.text(max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_key_is_a_pure_function(self, program, spec):
        k1 = cache_key(program, spec)
        k2 = cache_key(program, spec)
        assert k1 == k2
        if program != TESTIV_SOURCE or spec != SPEC_TEXT:
            assert k1 != cache_key(TESTIV_SOURCE, SPEC_TEXT)


class TestCrossProcess:
    def test_key_identical_in_fresh_interpreter(self):
        """The property content-addressing needs: keys cross processes."""
        here = cache_key(TESTIV_SOURCE, SPEC_TEXT, {"split_phase": True})
        prog = (
            "from repro.corpus import TESTIV_SOURCE\n"
            "from repro.service.keys import cache_key\n"
            "from repro.spec import spec_for_testiv\n"
            "print(cache_key(TESTIV_SOURCE, spec_for_testiv().serialize(),"
            " {'split_phase': True}))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep))
        out = subprocess.run([sys.executable, "-c", prog], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == here

    def test_code_version_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_VERSION", "pinned-for-test")
        assert code_version() == "pinned-for-test"
        base = cache_key(TESTIV_SOURCE, SPEC_TEXT)
        monkeypatch.setenv("REPRO_CODE_VERSION", "a-different-build")
        assert cache_key(TESTIV_SOURCE, SPEC_TEXT) != base
