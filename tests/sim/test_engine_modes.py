"""Engine-mode coverage: the single default, trace export round-trips
and dynamic-segment minislot boundary cases, the latter two exercised
under every engine mode.

The differential tests (`test_trace_equivalence.py`) prove
interpreter == vectorized on broad workloads; this module pins the
awkward corners of the dynamic segment -- a frame that consumes the
*entire* minislot budget (its transmission ends exactly when the
segment does), a frame one minislot too large (held forever), and a
cycle with no dynamic segment at all -- and checks that traces produced
by any engine survive the CSV pipeline byte-identically.
"""

import dataclasses
import inspect
import io

import pytest

from repro.cli import build_parser
from repro.distrib.plan import CampaignPlan
from repro.experiments.figures import fig1_2_running_time
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.flexray.signal import Signal, SignalSet
from repro.protocol.cluster import Cluster
from repro.service.config import ServiceSetup, load_service_setup
from repro.sim.engine import DEFAULT_ENGINE_MODE, EngineMode
from repro.sim.trace import canonical_trace_bytes
from repro.sim.trace_io import export_csv, import_csv

MODES = ("interpreter", "vectorized")


def parameter_default(function, name):
    return inspect.signature(function).parameters[name].default


def field_default(cls, name):
    return {field.name: field.default
            for field in dataclasses.fields(cls)}[name]


#: Every public entry point that picks an engine when the caller does not.
DEFAULTS = {
    "Cluster": lambda: parameter_default(Cluster.__init__, "mode"),
    "run_experiment": lambda: parameter_default(run_experiment,
                                                "engine_mode"),
    "ExperimentResult": lambda: field_default(ExperimentResult,
                                              "engine_mode"),
    "fig1_2_running_time": lambda: parameter_default(fig1_2_running_time,
                                                     "engine_mode"),
    "ServiceSetup": lambda: field_default(ServiceSetup, "engine_mode"),
    "load_service_setup": lambda: parameter_default(load_service_setup,
                                                    "engine_mode"),
    "CampaignPlan": lambda: field_default(CampaignPlan, "engine_mode"),
    "repro run": lambda: build_parser().parse_args(["run"]).engine_mode,
    "repro campaign": lambda: build_parser().parse_args(
        ["campaign"]).engine_mode,
    "repro serve": lambda: build_parser().parse_args(["serve"]).engine_mode,
}


class TestSingleDefault:
    @pytest.mark.parametrize("entry_point", sorted(DEFAULTS))
    def test_entry_point_uses_the_engine_default(self, entry_point):
        assert EngineMode.parse(DEFAULTS[entry_point]()) \
            is DEFAULT_ENGINE_MODE

    def test_parse_none_is_the_default(self):
        assert EngineMode.parse(None) is DEFAULT_ENGINE_MODE

    def test_two_modes(self):
        assert [mode.value for mode in EngineMode] == list(MODES)


class TestRetiredStepperMode:
    def test_parse_rejects_stepper(self):
        with pytest.raises(ValueError, match="unknown engine mode"):
            EngineMode.parse("stepper")

    @pytest.mark.parametrize("command", ("run", "campaign", "serve"))
    def test_cli_rejects_stepper(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(
                [command, "--engine-mode", "stepper"])
        assert exit_info.value.code != 0
        assert "invalid choice: 'stepper'" in capsys.readouterr().err


FILL_BITS = 1600


def exact_fill_params(params, bits=FILL_BITS):
    """Shrink the dynamic segment so a ``bits`` frame fills it exactly."""
    return params.with_minislots(params.minislots_for_bits(bits))


def aperiodic(name, bits, period_ms=4.0):
    return Signal(name=name, ecu=2, period_ms=period_ms, offset_ms=0.5,
                  deadline_ms=period_ms, size_bits=bits, priority=1,
                  aperiodic=True)


def run_mode(mode, params, periodic, aperiodics, duration_ms=20.0):
    return run_experiment(
        params=params,
        scheduler="dynamic-priority",
        periodic=periodic,
        aperiodic=SignalSet(aperiodics) if aperiodics else None,
        ber=0.0,
        seed=9,
        duration_ms=duration_ms,
        engine_mode=mode,
    )


class TestMinislotBoundaries:
    @pytest.mark.parametrize("mode", MODES)
    def test_frame_exactly_fills_segment(self, mode, small_params,
                                         tiny_periodic_signals):
        """A dynamic frame sized to the whole minislot budget ends exactly
        with the segment: transmission consumes every minislot."""
        params = exact_fill_params(small_params)
        result = run_mode(mode, params, tiny_periodic_signals,
                          [aperiodic("fill", FILL_BITS)])
        dynamic = result.cluster.trace.records_for_segment("dynamic")
        assert dynamic, "the exact-fill frame was never transmitted"
        for record in dynamic:
            assert (params.minislots_for_bits(record.payload_bits)
                    == params.g_number_of_minislots)

    def test_exact_fill_trace_equivalent(self, small_params,
                                         tiny_periodic_signals):
        params = exact_fill_params(small_params)
        traces = [
            run_mode(mode, params, tiny_periodic_signals,
                     [aperiodic("fill", FILL_BITS)]).cluster.trace
            for mode in MODES
        ]
        assert len({canonical_trace_bytes(t) for t in traces}) == 1

    @pytest.mark.parametrize("mode", MODES)
    def test_oversized_frame_is_held_forever(self, mode, small_params,
                                             tiny_periodic_signals):
        """One minislot short of fitting: the frame never fits and is held
        cycle after cycle, consuming one minislot per attempt."""
        params = small_params.with_minislots(
            exact_fill_params(small_params).g_number_of_minislots - 1)
        result = run_mode(mode, params, tiny_periodic_signals,
                          [aperiodic("toobig", FILL_BITS)],
                          duration_ms=10.0)
        assert not any(
            r.message_id.startswith("toobig")
            for r in result.cluster.trace.records_for_segment("dynamic"))

    @pytest.mark.parametrize("mode", MODES)
    def test_zero_minislots_never_transmits_dynamic(
            self, mode, small_params, tiny_periodic_signals):
        """No dynamic segment: aperiodic traffic can never be sent."""
        params = small_params.with_minislots(0)
        result = run_mode(mode, params, tiny_periodic_signals,
                          [aperiodic("stuck", 64)], duration_ms=10.0)
        assert result.cluster.trace.records_for_segment("dynamic") == []
        assert result.cluster.trace.records_for_segment("static")

    def test_zero_minislots_trace_equivalent(self, small_params,
                                             tiny_periodic_signals):
        params = small_params.with_minislots(0)
        traces = [
            run_mode(mode, params, tiny_periodic_signals,
                     [aperiodic("stuck", 64)], duration_ms=10.0).cluster.trace
            for mode in MODES
        ]
        assert len({canonical_trace_bytes(t) for t in traces}) == 1


class TestTraceIoRoundTripPerMode:
    @pytest.mark.parametrize("mode", MODES)
    def test_csv_round_trip_preserves_canonical_bytes(
            self, mode, small_params, tiny_periodic_signals,
            tiny_aperiodic_signals):
        """An engine-produced trace survives export -> import exactly."""
        result = run_experiment(
            params=small_params,
            scheduler="coefficient",
            periodic=tiny_periodic_signals,
            aperiodic=tiny_aperiodic_signals,
            ber=1e-4,
            seed=3,
            duration_ms=15.0,
            engine_mode=mode,
        )
        trace = result.cluster.trace
        assert len(trace) > 0
        buffer = io.StringIO()
        export_csv(trace, buffer)
        buffer.seek(0)
        rebuilt = import_csv(buffer)
        assert canonical_trace_bytes(rebuilt) == canonical_trace_bytes(trace)
