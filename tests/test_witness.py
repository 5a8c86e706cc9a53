"""Trust ring 1: witness replay of reported error paths.

Covers the classification matrix of ``repro/witness.py`` for both
analyzers, including the edge cases the issue calls out: models with
don't-care variables filled by defaults, paths through a MemMerge-heavy
memory log (SEIf-Defer), and a deliberately broken executor
(monkeypatched to drop path guards) that must classify REPLAY_DIVERGED,
never CONFIRMED.
"""

import json

import pytest

from repro import smt
from repro.core import MixConfig, analyze_source
from repro.lang.parser import parse_type
from repro.mixy import Mixy, MixyConfig
from repro.mixy.corpus_vsftpd import ANNOTATION_SITES, annotation_subsets, mini_vsftpd
from repro.smt.service import FaultInjector, SolverService
from repro.symexec import IfStrategy, SymConfig
from repro.typecheck.types import TypeEnv
from repro.witness import Witness, WitnessVerdict


@pytest.fixture(autouse=True)
def fresh_service():
    saved = smt.get_service()
    smt.set_service(SolverService())
    yield
    smt.set_service(saved)


def _env(spec: str) -> TypeEnv:
    bindings = {}
    for item in filter(None, spec.split(",")):
        name, _, text = item.partition(":")
        bindings[name.strip()] = parse_type(text.strip())
    return TypeEnv(bindings)


def _mix_config(**kwargs) -> MixConfig:
    return MixConfig(validate_witnesses=True, contain_crashes=False, **kwargs)


def _mixy_config(**kwargs) -> MixyConfig:
    return MixyConfig(validate_witnesses=True, contain_crashes=False, **kwargs)


class TestMixWitness:
    def test_confirmed_with_concrete_inputs(self):
        report = analyze_source(
            "{s if x < 3 then 1 + true else 2 s}",
            env=_env("x:int"),
            config=_mix_config(),
        )
        assert not report.ok
        (diag,) = report.diagnostics
        assert diag.witness is not None
        assert diag.witness.verdict is WitnessVerdict.CONFIRMED
        assert diag.witness.inputs["x"] < 3
        assert smt.get_service().stats.witnesses_confirmed == 1

    def test_dont_care_inputs_filled_by_defaults(self):
        # y never appears in the path condition: the model leaves it
        # unconstrained and concretization falls back to the default.
        report = analyze_source(
            "{s if x < 3 then 1 + true else y s}",
            env=_env("x:int,y:int"),
            config=_mix_config(),
        )
        (diag,) = report.diagnostics
        assert diag.witness.verdict is WitnessVerdict.CONFIRMED
        assert diag.witness.inputs["y"] == 0  # default for a don't-care int

    def test_memmerge_heavy_path_still_replays(self):
        # SEIf-Defer merges the two branch memories into a MemMerge node;
        # the replay must still concretize and reproduce the error.
        report = analyze_source(
            "{s (if x < 0 then r := 1 else r := 2); !r + true s}",
            env=_env("x:int,r:int ref"),
            config=_mix_config(sym=SymConfig(if_strategy=IfStrategy.DEFER)),
        )
        assert not report.ok
        assert any(
            d.witness is not None
            and d.witness.verdict is WitnessVerdict.CONFIRMED
            for d in report.diagnostics
        )

    def test_static_limit_diagnostics_are_unconfirmed(self):
        # A loop-bound diagnostic reports an analysis limit; the concrete
        # semantics has nothing to reproduce.
        report = analyze_source(
            "{s let i = ref 0 in while !i < 100 do i := !i + 1 done s}",
            config=_mix_config(sym=SymConfig(max_loop_unroll=3)),
        )
        for diag in report.diagnostics:
            if diag.witness is not None:
                assert diag.witness.verdict is not WitnessVerdict.CONFIRMED

    def test_guard_dropping_executor_diverges(self, monkeypatch):
        # A broken executor that forgets to extend the path condition at
        # forks reports an error on a path the concrete run never takes:
        # the replay must indict the executor, not confirm the report.
        from repro.symexec.executor import State

        monkeypatch.setattr(State, "and_guard", lambda self, conjunct: self)
        report = analyze_source(
            "{s if x < 3 then 2 else 1 + true s}",
            env=_env("x:int"),
            config=_mix_config(),
        )
        assert not report.ok
        verdicts = [d.witness.verdict for d in report.diagnostics if d.witness]
        assert WitnessVerdict.REPLAY_DIVERGED in verdicts
        assert smt.get_service().stats.witnesses_diverged >= 1

    def test_witness_repr_and_dict_are_json_clean(self):
        report = analyze_source(
            "{s if x < 3 then 1 + true else 2 s}",
            env=_env("x:int"),
            config=_mix_config(),
        )
        (diag,) = report.diagnostics
        payload = json.dumps(diag.witness.as_dict())
        assert "CONFIRMED" in payload
        assert "CONFIRMED" in str(diag)


class TestMixyWitness:
    NULL_ARG = """
    void deref(int *p) MIX(symbolic) { *p = 1; }
    void main() { deref(NULL); }
    """

    GUARDED = """
    void deref(int *p) MIX(symbolic) { if (p != NULL) { *p = 1; } }
    void main() { deref(NULL); }
    """

    def test_confirmed_null_argument(self):
        warnings = Mixy(self.NULL_ARG, _mixy_config()).run()
        (warning,) = warnings
        assert warning.witness is not None
        assert warning.witness.verdict is WitnessVerdict.CONFIRMED
        assert warning.witness.inputs == {"p": 0}

    def test_guarded_deref_produces_no_warning(self):
        assert Mixy(self.GUARDED, _mixy_config()).run() == []

    def test_guard_dropping_executor_diverges(self, monkeypatch):
        # Break the C executor the same way: branch guards dropped, so
        # the guarded dereference is (wrongly) reported reachable with
        # NULL.  The concrete replay takes the guard and must diverge.
        from repro.mixy.symexec import CState

        monkeypatch.setattr(CState, "and_guard", lambda self, conjunct: self)
        warnings = Mixy(self.GUARDED, _mixy_config()).run()
        assert warnings, "the broken executor should warn"
        verdicts = [w.witness.verdict for w in warnings if w.witness]
        assert WitnessVerdict.REPLAY_DIVERGED in verdicts
        assert smt.get_service().stats.witnesses_diverged >= 1

    def test_struct_flow_confirmed(self):
        # The witness path crosses a struct field and a helper call.
        source = """
        struct box { int *slot; };
        void use(struct box *b) MIX(symbolic) { *(b->slot) = 1; }
        void main() {
          struct box b;
          b.slot = NULL;
          use(&b);
        }
        """
        warnings = Mixy(source, _mixy_config()).run()
        assert warnings
        assert any(
            w.witness is not None
            and w.witness.verdict is not WitnessVerdict.REPLAY_DIVERGED
            for w in warnings
        )

    def test_paranoid_bad_model_still_confirms(self):
        # Ring 2 catches the corrupted model and re-solves, so ring 1
        # still sees a correct model and confirms the witness.
        service = SolverService(paranoid=True)
        service.fault_injector = FaultInjector(faults={1: FaultInjector.BAD_MODEL})
        smt.set_service(service)
        warnings = Mixy(self.NULL_ARG, _mixy_config()).run()
        verdicts = [w.witness.verdict for w in warnings if w.witness]
        assert WitnessVerdict.REPLAY_DIVERGED not in verdicts
        assert service.stats.self_check_failures >= 1


class TestCorpusZeroDivergence:
    """Acceptance: on the seed corpus every replayed report classifies,
    and none as REPLAY_DIVERGED."""

    @pytest.mark.parametrize("subset", list(annotation_subsets()))
    def test_vsftpd_no_divergence(self, subset):
        warnings = Mixy(mini_vsftpd(subset), _mixy_config()).run()
        stats = smt.get_service().stats
        assert stats.witnesses_diverged == 0
        for warning in warnings:
            if warning.witness is not None:
                assert (
                    warning.witness.verdict is not WitnessVerdict.REPLAY_DIVERGED
                )

    def test_fully_annotated_vsftpd_paranoid(self):
        smt.set_service(SolverService(paranoid=True))
        warnings = Mixy(
            mini_vsftpd(frozenset(ANNOTATION_SITES)), _mixy_config()
        ).run()
        assert warnings == []
        stats = smt.get_service().stats
        assert stats.witnesses_diverged == 0
        assert stats.self_check_failures == 0


def _fork_workload(validate: bool):
    """2^6 forked paths, no errors."""
    source = "{s " + " + ".join(f"(if p{i} then 1 else 0)" for i in range(6)) + " s}"
    config = MixConfig(
        sym=SymConfig(if_strategy=IfStrategy.FORK), validate_witnesses=validate
    )
    return analyze_source(
        source, env=_env(",".join(f"p{i}:bool" for i in range(6))), config=config
    ).ok


def _mix_error_workload(validate: bool):
    """A rejected MIX program: the diagnostic's path gets replayed."""
    report = analyze_source(
        "{s if x < 3 then (if y < 2 then 1 + true else 1) else 2 s}",
        env=_env("x:int,y:int"),
        config=MixConfig(validate_witnesses=validate),
    )
    return [d.message for d in report.diagnostics]


def _vsftpd_workload(validate: bool):
    """mini-vsftpd at the fully annotated end of the schedule."""
    config = MixyConfig(validate_witnesses=validate)
    warnings = Mixy(mini_vsftpd(annotation_subsets()[-1]), config).run()
    return sorted(w.message for w in warnings)


WARNING_HEAVY = "\n".join(
    f"void deref{i}(int *p) MIX(symbolic) {{ *p = {i}; }}" for i in range(6)
) + (
    "\nvoid main() { "
    + " ".join(f"deref{i}(NULL);" for i in range(6))
    + " }"
)


def _warning_heavy_workload(validate: bool):
    """Six NULL-flow warnings, each replayed when validation is on."""
    config = MixyConfig(validate_witnesses=validate)
    return sorted(w.message for w in Mixy(WARNING_HEAVY, config).run())


TRUST_WORKLOADS = [
    ("fork k=6", _fork_workload),
    ("mix error", _mix_error_workload),
    ("mini-vsftpd", _vsftpd_workload),
    ("6x null-flow", _warning_heavy_workload),
]


def _run_on(service: SolverService, workload, validate: bool):
    smt.set_service(service)
    return workload(validate), service.stats


class TestTrustRingsOnAnalysisWorkloads:
    """E15: rings 1 and 2 (witness replay and the paranoid model
    self-check) change no verdict and classify every reported path."""

    @pytest.mark.parametrize(
        "name,workload", TRUST_WORKLOADS, ids=[n for n, _ in TRUST_WORKLOADS]
    )
    def test_trust_rings_do_not_change_verdicts(self, name, workload):
        base_result, _ = _run_on(SolverService(), workload, validate=False)
        trusted_result, stats = _run_on(
            SolverService(paranoid=True), workload, validate=True
        )
        assert trusted_result == base_result
        # Ground truth never contradicts the analyzer on the seed corpus.
        assert stats.witnesses_diverged == 0
        assert stats.self_check_failures == 0

    def test_every_reported_path_is_classified(self):
        _, stats = _run_on(
            SolverService(paranoid=True), _warning_heavy_workload, validate=True
        )
        assert stats.witnesses_confirmed == 6
        _, stats = _run_on(
            SolverService(paranoid=True), _mix_error_workload, validate=True
        )
        assert stats.witnesses_confirmed + stats.witnesses_unconfirmed >= 1


class TestStatsSerialization:
    def test_trust_counters_serialize_to_json(self):
        analyze_source(
            "{s if x < 3 then 1 + true else 2 s}",
            env=_env("x:int"),
            config=_mix_config(),
        )
        stats = smt.get_service().stats.as_dict()
        payload = json.loads(json.dumps(stats))
        for key in (
            "self_check_failures",
            "witnesses_confirmed",
            "witnesses_unconfirmed",
            "witnesses_diverged",
            "blocks_contained",
        ):
            assert key in payload
        assert payload["witnesses_confirmed"] == 1

    def test_witness_dataclass_is_frozen(self):
        w = Witness(WitnessVerdict.CONFIRMED, inputs={"x": 1})
        with pytest.raises(Exception):
            w.verdict = WitnessVerdict.UNCONFIRMED
