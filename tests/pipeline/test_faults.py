"""FaultPlan: spec parsing, determinism, firing semantics, corruption."""

import random

import pytest

from repro.io.pack import Pack, PackError, PackWriter
from repro.pipeline import Fault, FaultPlan, InjectedFaultError, corrupt_file
from repro.pipeline.cache import PACK_NAME
from repro.pipeline.faults import FAULT_KINDS, HANG_SECONDS


class TestFaultTokens:
    def test_round_trip_every_form(self):
        for token in ("crash@2", "error@0x3", "hang@5x*", "corrupt@0",
                      "stop@7"):
            assert Fault.from_token(token).to_token() == token

    def test_default_attempts_is_one(self):
        fault = Fault.from_token("crash@4")
        assert fault.attempts == 1
        assert fault.to_token() == "crash@4"  # the x1 suffix is implied

    @pytest.mark.parametrize("token", [
        "crash2",          # no @
        "frobnicate@1",    # unknown kind
        "crash@-1",        # negative chunk
        "crash@1x0",       # zero attempts
        "crash@1x-3",      # negative attempts (not the -1 sentinel)
    ])
    def test_invalid_tokens_rejected(self, token):
        with pytest.raises(ValueError):
            Fault.from_token(token)

    def test_fires_counts_attempts(self):
        fault = Fault("crash", 3, attempts=2)
        assert fault.fires(3, 0) and fault.fires(3, 1)
        assert not fault.fires(3, 2)
        assert not fault.fires(2, 0)

    def test_fires_always_sentinel(self):
        fault = Fault("error", 1, attempts=-1)
        assert all(fault.fires(1, a) for a in range(10))


class TestFaultPlan:
    def test_empty_spec_is_no_plan(self):
        assert FaultPlan.from_spec(None) is None
        assert FaultPlan.from_spec("") is None

    def test_spec_round_trip_with_seed(self):
        spec = "crash@2,error@0x2,hang@5x*;seed=7"
        plan = FaultPlan.from_spec(spec)
        assert plan.seed == 7
        assert plan.to_spec() == spec

    def test_spec_round_trip_without_seed(self):
        plan = FaultPlan.from_spec("crash@1,stop@3")
        assert plan.seed == 0
        assert plan.to_spec() == "crash@1,stop@3"

    def test_bad_tail_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            FaultPlan.from_spec("crash@1;sneed=7")

    def test_matching_filters_kind_and_attempt(self):
        plan = FaultPlan([Fault("crash", 0), Fault("error", 0, attempts=2),
                          Fault("crash", 1)])
        assert [f.kind for f in plan.matching(0, 0)] == ["crash", "error"]
        assert [f.kind for f in plan.matching(0, 1)] == ["error"]
        assert plan.matching(0, 0, kinds=("error",))[0].kind == "error"
        assert plan.matching(2, 0) == []

    def test_stop_after(self):
        plan = FaultPlan([Fault("stop", 4), Fault("crash", 2)])
        assert plan.stop_after(4)
        assert not plan.stop_after(2)

    def test_random_plan_is_deterministic(self):
        a = FaultPlan.random(5, 20)
        b = FaultPlan.random(5, 20)
        assert a.to_spec() == b.to_spec()
        assert a.to_spec() != FaultPlan.random(6, 20).to_spec()

    def test_random_plan_respects_bounds_kinds_and_rate(self):
        plan = FaultPlan.random(3, 40, kinds=("crash", "error"), rate=0.5)
        assert all(0 <= f.chunk < 40 for f in plan.faults)
        assert {f.kind for f in plan.faults} <= {"crash", "error"}
        assert FaultPlan.random(3, 40, rate=0.0).faults == ()
        assert len(FaultPlan.random(3, 40, rate=1.0).faults) == 40

    def test_fire_error_raises_injected_fault(self):
        plan = FaultPlan([Fault("error", 2)])
        with pytest.raises(InjectedFaultError):
            plan.fire(2, 0)
        plan.fire(2, 1)  # attempt past the fault: a no-op
        plan.fire(0, 0)  # different chunk: a no-op

    def test_fire_crash_calls_os_exit(self, monkeypatch):
        codes = []
        monkeypatch.setattr("repro.pipeline.faults.os._exit",
                            lambda code: codes.append(code))
        plan = FaultPlan([Fault("crash", 0)])
        # With _exit stubbed out the loop falls through to the raise.
        with pytest.raises(InjectedFaultError):
            plan.fire(0, 0)
        assert codes == [17]

    def test_fire_hang_sleeps_past_any_deadline(self, monkeypatch):
        naps = []
        monkeypatch.setattr("repro.pipeline.faults.time.sleep",
                            lambda s: naps.append(s))
        plan = FaultPlan([Fault("hang", 0)])
        with pytest.raises(InjectedFaultError):
            plan.fire(0, 0)
        assert naps == [HANG_SECONDS]

    def test_fault_kinds_cover_spec_grammar(self):
        assert set(FAULT_KINDS) == {"crash", "error", "hang", "corrupt",
                                    "stop"}


class TestCorruptFile:
    def test_truncate_halves_the_file(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(bytes(range(100)))
        assert corrupt_file(path, mode="truncate") == "truncate"
        assert path.read_bytes() == bytes(range(50))

    def test_flip_changes_exactly_one_byte(self, tmp_path):
        data = bytes(range(200))
        path = tmp_path / "f.bin"
        path.write_bytes(data)
        assert corrupt_file(path, mode="flip",
                            rng=random.Random(1)) == "flip"
        damaged = path.read_bytes()
        assert len(damaged) == len(data)
        diffs = [i for i in range(len(data)) if damaged[i] != data[i]]
        assert len(diffs) == 1
        assert damaged[diffs[0]] == data[diffs[0]] ^ 0xFF

    def test_flip_is_deterministic_for_a_seeded_rng(self, tmp_path):
        results = []
        for name in ("a.bin", "b.bin"):
            path = tmp_path / name
            path.write_bytes(bytes(range(200)))
            corrupt_file(path, mode="flip", rng=random.Random(9))
            results.append(path.read_bytes())
        assert results[0] == results[1]

    def test_tiny_file_falls_back_to_truncation(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"x")
        assert corrupt_file(path, mode="flip") == "truncate"
        assert path.read_bytes() == b""

    def test_corrupt_fault_targets_the_given_keys(self, tmp_path):
        # Only the targeted record's stored blob inside the cache pack
        # is damaged; its neighbours, before and after it, are not.
        payload = bytes(range(64))
        pack_path = tmp_path / PACK_NAME
        with PackWriter.create(pack_path) as writer:
            for key in ("aaa", "bbb", "ccc"):
                writer.add(f"{key}.json", "json", payload)
        before = pack_path.read_bytes()
        plan = FaultPlan([Fault("corrupt", 0)], seed=1)
        plan.fire(0, 0, cache_dir=str(tmp_path), keys=["bbb"])
        after = pack_path.read_bytes()
        assert len(after) == len(before)
        with Pack.open(pack_path) as pack:
            assert bytes(pack.read("aaa.json")) == payload
            assert bytes(pack.read("ccc.json")) == payload
            with pytest.raises(PackError, match="checksum"):
                pack.read("bbb.json")
            entry = pack.entry("bbb.json")
        diffs = [i for i in range(len(after)) if after[i] != before[i]]
        assert diffs and all(
            entry.offset <= i < entry.offset + entry.csize for i in diffs)

    def test_corrupt_fault_tolerates_missing_targets(self, tmp_path):
        plan = FaultPlan([Fault("corrupt", 0)], seed=1)
        plan.fire(0, 0, cache_dir=None)                    # no cache
        plan.fire(0, 0, cache_dir=str(tmp_path / "nope"))  # no directory
        plan.fire(0, 0, cache_dir=str(tmp_path))           # no pack
        with PackWriter.create(tmp_path / PACK_NAME):
            pass
        plan.fire(0, 0, cache_dir=str(tmp_path))           # no records
