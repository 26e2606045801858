"""Tests for the campaign subsystem: specs, sweeps, executors, cache, CLI."""

import json
import os

import pytest

from repro.campaign import (
    CampaignCell,
    CampaignResult,
    CampaignSpec,
    ResultCache,
    ScenarioSweep,
    cell_digest,
    paper_grid,
    run_campaign,
    sweep_grid,
)
from repro.campaign.executor import execute_cells
from repro.devices.registry import build_runner, known_labels, register_runner
from repro.evaluation.scenarios import SCENARIOS, Scenario, scenario


class TestSpec:
    def test_cell_count_and_order_are_deterministic(self):
        spec = CampaignSpec(
            implementations=("splice_plb", "splice_fcb"),
            scenarios=SCENARIOS[:2],
            seeds=(0, 7),
            repeats=2,
        )
        cells = spec.cells()
        assert len(cells) == spec.cell_count == 2 * 2 * 2 * 2
        assert cells == spec.cells()
        assert cells[0].label == "splice_plb"

    def test_repeats_vary_the_effective_seed(self):
        spec = CampaignSpec(implementations=("splice_plb",), scenarios=SCENARIOS[:1], repeats=3, seeds=(5,))
        cells = spec.cells()
        assert cells[0].effective_seed == 5  # repeat 0 == the plain seed
        assert len({cell.effective_seed for cell in cells}) == 3
        inputs = [cell.generate_inputs() for cell in cells]
        assert inputs[0] != inputs[1] != inputs[2]

    def test_mixed_seed_repeat_grids_never_alias_inputs(self):
        """seed=0/repeat=1 must not draw the same data as seed=1/repeat=0."""
        spec = CampaignSpec(
            implementations=("splice_plb",), scenarios=SCENARIOS[:1], seeds=(0, 1, 2), repeats=3
        )
        seeds = [cell.effective_seed for cell in spec.cells()]
        assert len(set(seeds)) == len(seeds)

    def test_round_trips_through_dict(self):
        spec = sweep_grid(ScenarioSweep(mode="geometric", count=3), seeds=(1, 2), repeats=2)
        clone = CampaignSpec.from_dict(spec.describe())
        assert clone == spec
        assert clone.fingerprint() == spec.fingerprint()

    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignSpec(implementations=(), scenarios=SCENARIOS)
        with pytest.raises(ValueError):
            CampaignSpec(implementations=("splice_plb",), scenarios=())
        with pytest.raises(ValueError):
            CampaignSpec(implementations=("splice_plb",), scenarios=SCENARIOS, repeats=0)
        with pytest.raises(ValueError, match="unknown simulation kernel"):
            CampaignSpec(implementations=("splice_plb",), kernel="vectorized")


class TestKernelSelection:
    def test_kernel_is_part_of_cell_identity_and_digest(self):
        spec_event = CampaignSpec(implementations=("splice_plb",), scenarios=SCENARIOS[:1])
        spec_compiled = CampaignSpec(
            implementations=("splice_plb",), scenarios=SCENARIOS[:1], kernel="compiled"
        )
        event_cell = spec_event.cells()[0]
        compiled_cell = spec_compiled.cells()[0]
        assert event_cell.kernel == "event"
        assert compiled_cell.kernel == "compiled"
        assert event_cell.key != compiled_cell.key
        assert event_cell.describe()["kernel"] == "event"
        # The cache must never serve one kernel's outcome for another.
        assert cell_digest(event_cell) != cell_digest(compiled_cell)
        # Kernel survives the spec round trip.
        assert CampaignSpec.from_dict(spec_compiled.describe()).kernel == "compiled"

    def test_compiled_kernel_campaign_is_bit_identical_to_event(self):
        """The paper grid yields byte-for-byte equal outcomes on both
        scheduling kernels — the campaign-level cycle-exactness proof."""
        event = run_campaign(paper_grid())
        compiled = run_campaign(paper_grid(kernel="compiled"))

        def rows(result):
            return [
                {k: v for k, v in row.items() if k != "kernel"}
                for row in result.payload()
            ]

        assert rows(event) == rows(compiled)
        assert all(compiled.agreement().values())


class TestSweep:
    def test_linear_growth(self):
        rows = ScenarioSweep(mode="linear", count=3, base=(2, 1, 2)).scenarios()
        assert [(s.set1, s.set2, s.set3) for s in rows] == [(2, 1, 2), (4, 2, 4), (6, 3, 6)]
        assert [s.number for s in rows] == [101, 102, 103]

    def test_geometric_growth(self):
        rows = ScenarioSweep(mode="geometric", count=3, base=(4, 2, 4), ratio=2.0, max_size=256).scenarios()
        assert [s.set1 for s in rows] == [4, 8, 16]

    def test_random_is_deterministic_per_seed(self):
        a = ScenarioSweep(mode="random", count=5, seed=3).scenarios()
        b = ScenarioSweep(mode="random", count=5, seed=3).scenarios()
        c = ScenarioSweep(mode="random", count=5, seed=4).scenarios()
        assert a == b
        assert a != c

    def test_random_is_bit_identical_across_platforms(self):
        """Randomized rows come from random.Random(seed), whose bit stream is
        part of the Python language contract — so these exact sizes must
        reproduce on any platform, Python version, and worker process."""
        rows = ScenarioSweep(mode="random", count=3, seed=0).scenarios()
        assert [(s.set1, s.set2, s.set3) for s in rows] == [
            (49, 53, 5), (33, 62, 51), (38, 61, 45)]

    def test_fuzzed_is_deterministic_and_covers_families(self):
        rows = ScenarioSweep(mode="fuzzed", count=10, seed=1).scenarios()
        again = ScenarioSweep(mode="fuzzed", count=10, seed=1).scenarios()
        assert rows == again
        sizes = [(s.set1, s.set2, s.set3) for s in rows]
        # One row per family per 5 steps: empty-ish, skew, burst±1, uniform,
        # saturated (the max-size row is the family fingerprint).
        assert (64, 64, 64) in sizes
        assert any(a == 0 and b == 0 for a, b, _ in sizes)

    def test_burst_rows_are_quad_aligned(self):
        for s in ScenarioSweep(mode="burst", count=4).scenarios():
            assert s.set1 % 4 == 0 and s.set3 % 4 == 0
            assert s.set2 == 1

    def test_degenerate_includes_fully_empty_row(self):
        rows = ScenarioSweep(mode="degenerate", count=6).scenarios()
        assert (rows[0].set1, rows[0].set2, rows[0].set3) == (0, 0, 0)
        assert any(s.set1 == 0 for s in rows[1:])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSweep(mode="fibonacci")

    def test_sweep_scenarios_round_trip_generate_inputs(self):
        """Sweep rows generate deterministic inputs with the declared sizes."""
        for mode in ("linear", "geometric", "random", "burst", "degenerate", "fuzzed"):
            for s in ScenarioSweep(mode=mode, count=4, seed=9).scenarios():
                first = s.generate_inputs(seed=2)
                second = s.generate_inputs(seed=2)
                assert first == second
                assert [len(part) for part in first] == [s.set1, s.set2, s.set3]


class TestScenarioEdgeCases:
    def test_scenario_5_raises_key_error(self):
        with pytest.raises(KeyError):
            scenario(5)

    def test_zero_size_scenario_generates_valid_empty_inputs(self):
        empty = Scenario(number=900, set1=0, set2=0, set3=0)
        sets = empty.generate_inputs(seed=0)
        assert sets == ([], [], [])

    @pytest.mark.parametrize("label", ["splice_plb", "splice_fcb", "simple_plb", "optimized_fcb"])
    def test_empty_sets_run_end_to_end(self, label):
        from repro.devices.interpolator import interpolate_fixed_point

        runner = build_runner(label)
        outcome = runner.run_scenario(([], [], []))
        assert outcome["result"] == interpolate_fixed_point([], [], []) & 0xFFFFFFFF
        assert outcome["cycles"] > 0


class TestRegistry:
    def test_known_labels_cover_the_paper(self):
        labels = known_labels()
        for expected in ("simple_plb", "optimized_fcb", "splice_plb", "splice_plb_dma", "splice_fcb"):
            assert expected in labels

    def test_unknown_label_rejected(self):
        with pytest.raises(KeyError):
            build_runner("vaporware_bus")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_runner("splice_plb", lambda: None)


class TestExecutors:
    @pytest.fixture(scope="class")
    def grid(self):
        return paper_grid()

    @pytest.fixture(scope="class")
    def serial_result(self, grid):
        return run_campaign(grid)

    def test_sharded_is_bit_identical_to_serial_on_the_paper_grid(self, grid, serial_result):
        sharded = run_campaign(grid, workers=2)
        assert sharded.payload() == serial_result.payload()

    def test_executor_matches_legacy_experiment_table(self, serial_result):
        from repro.evaluation.experiments import run_cycles_experiment

        assert serial_result.cycles_table() == run_cycles_experiment()

    def test_all_implementations_agree_everywhere(self, serial_result):
        assert all(serial_result.agreement().values())

    @pytest.mark.skipif((os.cpu_count() or 1) < 4, reason="needs >= 4 CPUs for a meaningful speedup")
    def test_sharded_speedup_at_4_workers(self):
        import time

        spec = sweep_grid(
            ScenarioSweep(mode="geometric", count=4, base=(16, 8, 16), max_size=256),
            seeds=(0, 1),
            repeats=2,
        )  # 5 implementations x 4 scenarios x 2 seeds x 2 repeats = 80 cells
        assert spec.cell_count >= 32
        start = time.perf_counter()
        serial = run_campaign(spec)
        serial_s = time.perf_counter() - start
        start = time.perf_counter()
        sharded = run_campaign(spec, workers=4)
        sharded_s = time.perf_counter() - start
        assert sharded.payload() == serial.payload()
        assert serial_s / sharded_s >= 2.0, f"speedup {serial_s / sharded_s:.2f}x"


class TestWorkerCount:
    _SPEC = CampaignSpec(implementations=("splice_plb",), scenarios=SCENARIOS[:1])

    def test_one_means_serial(self):
        meta = run_campaign(self._SPEC, workers=1).meta
        assert (meta["executor"], meta["workers"]) == ("serial", 1)

    def test_many_means_the_farm_with_the_same_meta_keys(self):
        serial = run_campaign(self._SPEC).meta
        farm = run_campaign(self._SPEC, workers=2).meta
        assert (farm["executor"], farm["workers"]) == ("farm", 2)
        assert set(serial) == set(farm)
        for key in ("cells_total", "cells_cached", "cells_executed", "cells_failed",
                    "simulated_cycles", "spec_fingerprint"):
            assert farm[key] == serial[key], key

    def test_zero_means_one_worker_per_cpu(self):
        assert run_campaign(self._SPEC, workers=0).meta["workers"] == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(self._SPEC, workers=-2)


class TestWorkerCrashIsolation:
    @pytest.mark.skipif(
        __import__("multiprocessing").get_start_method() != "fork",
        reason="runtime-registered runners only reach workers under fork",
    )
    def test_dead_worker_yields_error_records_not_a_crash(self, tmp_path):
        """A worker process dying mid-shard retries the shard's unreported
        cells once on a fresh worker; if that dies too, those cells get
        structured ``worker_crash`` error records and every other shard's
        outcomes survive."""
        from repro.devices.registry import _BUILDERS, register_runner

        class Exiting:
            def run_scenario(self, sets):
                os._exit(3)

        register_runner("zz_exiting", Exiting)
        try:
            spec = CampaignSpec(
                implementations=("splice_plb", "zz_exiting"),
                scenarios=SCENARIOS[:2],
                name="worker-crash",
            )
            result = run_campaign(spec, workers=2, cache=tmp_path / "cache")
            by_label = {}
            for cell in result.cells:
                by_label.setdefault(cell.cell.label, []).append(cell)
            assert all(c.error is None for c in by_label["splice_plb"])
            assert all(
                c.error is not None and "worker_crash" in c.error
                for c in by_label["zz_exiting"]
            )
            assert all(c.cycles is None for c in by_label["zz_exiting"])
            assert result.meta["cells_failed"] == 2
            # Error records are never cached: a warm rerun re-attempts them.
            warm = run_campaign(spec, workers=2, cache=tmp_path / "cache")
            assert warm.meta["cells_cached"] == 2
            assert warm.meta["cells_failed"] == 2
        finally:
            _BUILDERS.pop("zz_exiting", None)

    def test_error_rows_round_trip_through_json_and_csv(self, tmp_path):
        from repro.campaign.executor import CellError
        from repro.campaign.result import cell_result

        spec = CampaignSpec(
            implementations=("splice_plb",), scenarios=SCENARIOS[:2], name="err-rows"
        )
        cells = spec.cells()
        mixed = CampaignResult(
            spec=spec,
            cells=[
                cell_result(cells[0], (1, 2, 3)),
                cell_result(cells[1], CellError(kind="worker_crash", message="died")),
            ],
            meta={},
        )
        clone = CampaignResult.from_dict(mixed.to_dict())
        assert clone.cells[0].error is None and clone.cells[0].cycles == 2
        assert clone.cells[1].error == "worker_crash: died"
        assert clone.cells[1].cycles is None
        assert "worker_crash: died" in mixed.to_csv()
        # Errored cells drop out of the aggregates instead of poisoning them.
        assert mixed.mean_cycles() == {"splice_plb": {cells[0].scenario.number: 2.0}}


class TestCache:
    def test_warm_rerun_skips_every_cell(self, tmp_path):
        spec = CampaignSpec(implementations=("splice_plb",), scenarios=SCENARIOS[:2], seeds=(0, 1))
        cold = run_campaign(spec, cache=tmp_path / "cache")
        warm = run_campaign(spec, cache=tmp_path / "cache")
        assert cold.meta["cells_cached"] == 0
        assert warm.meta["cells_cached"] == warm.meta["cells_total"] == spec.cell_count
        assert warm.cache_hit_rate == 1.0
        assert warm.payload() == cold.payload()

    def test_digest_depends_on_cell_identity(self):
        base = CampaignCell("splice_plb", SCENARIOS[0], seed=0, repeat=0)
        assert cell_digest(base) == cell_digest(base)
        assert cell_digest(base) != cell_digest(CampaignCell("splice_fcb", SCENARIOS[0], 0, 0))
        assert cell_digest(base) != cell_digest(CampaignCell("splice_plb", SCENARIOS[0], 1, 0))
        assert cell_digest(base) != cell_digest(CampaignCell("splice_plb", SCENARIOS[0], 0, 1))
        assert cell_digest(base) != cell_digest(CampaignCell("splice_plb", SCENARIOS[1], 0, 0))

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = CampaignCell("splice_plb", SCENARIOS[0], 0, 0)
        cache.put(cell, (1, 2, 3))
        assert cache.get(cell) == (1, 2, 3)
        (tmp_path / f"{cell_digest(cell)}.json").write_text("not json")
        assert cache.get(cell) is None

    def test_truncated_and_malformed_entries_are_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = CampaignCell("splice_plb", SCENARIOS[0], 0, 0)
        path = cache.put(cell, (1, 2, 3))
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # torn write / partial copy
        assert cache.get(cell) is None
        # Valid JSON with the wrong shape is also a miss, never a crash.
        path.write_text('{"outcome": "not-a-list"}')
        assert cache.get(cell) is None
        path.write_text('{"outcome": [1]}')
        assert cache.get(cell) is None

    def test_campaign_recovers_from_a_vandalised_cache(self, tmp_path):
        """Corrupt every entry on disk: the next run degrades to recompute,
        reproduces the cold payload bit-exactly, and heals the entries."""
        spec = CampaignSpec(implementations=("splice_plb",), scenarios=SCENARIOS[:2])
        cold = run_campaign(spec, cache=tmp_path / "cache")
        for entry in (tmp_path / "cache").glob("*.json"):
            entry.write_text("\x00garbage")
        healed = run_campaign(spec, cache=tmp_path / "cache")
        assert healed.meta["cells_cached"] == 0
        assert healed.payload() == cold.payload()
        warm = run_campaign(spec, cache=tmp_path / "cache")
        assert warm.meta["cells_cached"] == spec.cell_count

    def test_cache_shared_between_serial_and_sharded(self, tmp_path):
        spec = CampaignSpec(implementations=("splice_plb", "splice_fcb"), scenarios=SCENARIOS[:2])
        cold = run_campaign(spec, workers=2, cache=tmp_path / "cache")
        warm = run_campaign(spec, workers=1, cache=tmp_path / "cache")
        assert warm.meta["cells_cached"] == spec.cell_count
        assert warm.payload() == cold.payload()

    def test_fully_cached_multi_worker_run_starts_no_worker(self, tmp_path, monkeypatch):
        """A warm grid is answered from the cache in this process: the
        multi-worker path starts no farm worker, yet reports as the farm."""
        import repro.service.farm as farm_module

        spec = CampaignSpec(implementations=("splice_plb", "splice_fcb"), scenarios=SCENARIOS[:2])
        serial = run_campaign(spec, cache=tmp_path / "cache")
        spawned = []
        real_spawn = farm_module.spawn_worker
        monkeypatch.setattr(farm_module, "spawn_worker",
                            lambda *args, **kwargs: spawned.append(args) or real_spawn(*args, **kwargs))
        warm = run_campaign(spec, workers=2, cache=tmp_path / "cache")
        assert spawned == []
        assert warm.payload() == serial.payload()
        assert (warm.meta["executor"], warm.meta["workers"]) == ("farm", 2)
        assert warm.meta["cells_cached"] == warm.meta["cells_total"] == spec.cell_count


class TestResultArtifacts:
    @pytest.fixture(scope="class")
    def result(self):
        spec = CampaignSpec(implementations=("splice_plb", "splice_fcb"), scenarios=SCENARIOS[:2])
        return run_campaign(spec)

    def test_json_round_trip(self, result, tmp_path):
        path = tmp_path / "campaign.json"
        result.to_json(path)
        loaded = CampaignResult.from_json(path)
        assert loaded.payload() == result.payload()
        assert loaded.spec == result.spec

    def test_csv_has_one_row_per_cell(self, result):
        lines = result.to_csv().strip().splitlines()
        assert len(lines) == 1 + len(result.cells)
        assert lines[0].startswith("label,scenario,set1")

    def test_markdown_contains_grid_and_cycles_tables(self, result):
        text = result.to_markdown()
        assert "## Scenario grid" in text
        assert "## Mean bus cycles per run" in text
        assert "All implementations agree" in text

    def test_write_artifacts(self, result, tmp_path):
        paths = result.write_artifacts(tmp_path / "out")
        for path in paths.values():
            assert path.exists()
        data = json.loads(paths["json"].read_text())
        assert data["spec"]["implementations"] == ["splice_plb", "splice_fcb"]

    def test_mean_cycles_averages_over_seeds(self):
        spec = CampaignSpec(implementations=("splice_plb",), scenarios=SCENARIOS[:1], seeds=(0, 1, 2))
        result = run_campaign(spec)
        per_cell = [c.cycles for c in result.cells]
        assert result.mean_cycles()["splice_plb"][1] == pytest.approx(sum(per_cell) / 3)


class TestCampaignCLI:
    def test_legacy_flat_invocation_still_generates(self, tmp_path, capsys):
        from repro.cli import main
        from repro.devices.interpolator import INTERPOLATOR_SPEC_PLB

        spec_file = tmp_path / "interp.sp"
        spec_file.write_text(INTERPOLATOR_SPEC_PLB)
        assert main([str(spec_file), "--list-only"]) == 0
        out = capsys.readouterr().out
        assert "plb_interface.vhd" in out

    def test_campaign_run_and_report(self, tmp_path, capsys):
        from repro.cli import main

        rc = main([
            "campaign", "run",
            "--implementations", "splice_plb", "splice_fcb",
            "--sweep", "degenerate", "--sweep-count", "3",
            "--workers", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--artifacts", str(tmp_path / "artifacts"),
        ])
        assert rc == 0
        assert (tmp_path / "artifacts" / "campaign.json").exists()
        capsys.readouterr()

        rc = main(["campaign", "report", str(tmp_path / "artifacts" / "campaign.json")])
        assert rc == 0
        assert "Mean bus cycles" in capsys.readouterr().out

        rc = main(["campaign", "report", str(tmp_path / "artifacts" / "campaign.json"),
                   "--format", "csv"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("label,")

    def test_campaign_report_missing_file(self, capsys):
        from repro.cli import main

        assert main(["campaign", "report", "/nonexistent/campaign.json"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_legacy_option_value_named_like_a_subcommand(self, tmp_path, capsys):
        """`splice -o campaign spec.spl` must stay a generate invocation."""
        from repro.cli import main
        from repro.devices.interpolator import INTERPOLATOR_SPEC_PLB

        spec_file = tmp_path / "interp.sp"
        spec_file.write_text(INTERPOLATOR_SPEC_PLB)
        out_dir = tmp_path / "campaign"
        assert main(["-o", str(out_dir), str(spec_file)]) == 0
        capsys.readouterr()
        assert (out_dir / "interp_plb").is_dir()

    def test_paper_preset_rejects_conflicting_flags(self, capsys):
        from repro.cli import main

        rc = main(["campaign", "run", "--preset", "paper", "--sweep", "linear"])
        assert rc == 2
        assert "--preset paper" in capsys.readouterr().err


class TestIncrementalCachePersistence:
    def test_outcomes_persist_even_when_a_later_cell_fails(self, tmp_path):
        """An interrupted run keeps the cells it finished."""
        from repro.campaign.runner import run_campaign
        from repro.devices.registry import _BUILDERS, register_runner

        class Exploding:
            def run_scenario(self, sets):
                raise RuntimeError("boom")

        register_runner("zz_exploding", Exploding)
        try:
            spec = CampaignSpec(
                implementations=("splice_plb", "zz_exploding"),
                scenarios=SCENARIOS[:2],
                name="interrupted",
            )
            cache = ResultCache(tmp_path / "cache")
            with pytest.raises(RuntimeError):
                run_campaign(spec, cache=cache)
            # splice_plb sorts before zz_exploding, so its cells completed
            # and were persisted before the failure.
            assert len(cache) == 2
            survivor = CampaignSpec(implementations=("splice_plb",), scenarios=SCENARIOS[:2])
            warm = run_campaign(survivor, cache=cache)
            assert warm.cache_hit_rate == 1.0
        finally:
            _BUILDERS.pop("zz_exploding", None)

    @pytest.mark.skipif(
        __import__("multiprocessing").get_start_method() != "fork",
        reason="runtime-registered runners only reach workers under fork",
    )
    def test_failing_shard_does_not_discard_completed_shards(self, tmp_path):
        from repro.campaign.runner import run_campaign
        from repro.devices.registry import _BUILDERS, register_runner

        class Exploding:
            def run_scenario(self, sets):
                raise RuntimeError("boom")

        register_runner("zz_exploding", Exploding)
        try:
            spec = CampaignSpec(
                implementations=("splice_plb", "zz_exploding"),
                scenarios=SCENARIOS[:2],
                name="shard-failure",
            )
            cache = ResultCache(tmp_path / "cache")
            with pytest.raises(RuntimeError):
                run_campaign(spec, workers=2, cache=cache)
            # The splice_plb shard completed; its outcomes must have been
            # persisted even though the zz_exploding shard blew up.
            assert len(cache) == 2
        finally:
            _BUILDERS.pop("zz_exploding", None)


class TestProfileCLI:
    def test_profile_registry_label(self, capsys):
        from repro.cli import main

        rc = main(["profile", "splice_plb", "--kernel", "compiled",
                   "--repeat", "2", "--top", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Profile of splice_plb scenario 2" in out
        assert "cumulative" in out
        assert "bus cycles" in out

    def test_profile_spec_file(self, tmp_path, capsys):
        from repro.cli import main
        from repro.devices.interpolator import INTERPOLATOR_SPEC_PLB

        spec_file = tmp_path / "interp.sp"
        spec_file.write_text(INTERPOLATOR_SPEC_PLB)
        rc = main(["profile", str(spec_file), "--cycles", "500", "--top", "5",
                   "--sort", "tottime"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "500 bus cycles" in out
        assert "tottime" in out

    def test_profile_unknown_target(self, capsys):
        from repro.cli import main

        assert main(["profile", "not-a-label-or-file"]) == 2
        assert "neither a registered implementation label" in capsys.readouterr().err

    def test_profile_unknown_scenario(self, capsys):
        from repro.cli import main

        assert main(["profile", "splice_plb", "--scenario", "99"]) == 2
        assert "unknown scenario" in capsys.readouterr().err
