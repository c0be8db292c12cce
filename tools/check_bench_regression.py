#!/usr/bin/env python3
"""Perf-regression gate for the committed bench JSON baselines.

Four modes, selected by --mode (default: kernel). Every mode's key
tables — which sections a JSON must carry, which floors apply, which
paper regimes bound a value — live in the single declarative SCHEMA
dict below; the check_* functions only interpret it.

kernel — compares a freshly measured bench_rmcrt_kernel sweep (e.g. the
CI --smoke run) against the committed baseline and fails on a
throughput collapse:

    check_bench_regression.py --current ci.json --baseline BENCH_rmcrt_kernel.json

  1. Every thread-sweep bitwise_match flag in the current run is true —
     a perf number from a wrong answer is meaningless.
  2. Single-thread sweep Mseg/s >= tolerance * the baseline's. The
     default tolerance of 0.5 only catches collapses (an O(N) regression
     in the march loop), not machine-to-machine noise: CI runners and
     the baseline host differ, so tighter bounds would flake.
  3. The SIMD packet march has not collapsed against the scalar golden
     reference, with an ISA-dependent floor, and its worst per-ray
     deviation stays inside the documented ULP envelope. Hosts where
     Tracer::simdSupported() is false skip the perf floor but still must
     carry the section.

scaling — compares a freshly collected bench_scaling study against the
committed BENCH_scaling.json and fails when the paper's reproduced
shape drifts: a patch-size crossover flips, a series stops decreasing,
the Titan-default Eq. 3 efficiencies leave the paper's regime, or the
Table I speedups leave 2x-5x. The study is deterministic model
arithmetic, so current-vs-baseline values must also agree closely (they
only differ by libm ulps across hosts):

    check_bench_regression.py --mode scaling --current scaling-smoke.json \\
        --baseline BENCH_scaling.json

service — gates the radiation-as-a-service load generator
(bench_service, DESIGN.md §16) against BENCH_service.json:

    check_bench_regression.py --mode service --current svc-smoke.json \\
        --baseline BENCH_service.json

  1. bitwise_match is true in both runs: every batched response was
     element-for-element identical to the serial one-shot solve of the
     same query (Service::solve*OneShot) — fixed accuracy is the premise
     of the throughput number.
  2. Accounting reconciles: submitted == completed + rejected and the
     benchmark load runs shed-free (rejected == 0 — admission caps are
     sized so the gate measures throughput, not shedding).
  3. The sharing contract held: the run staged exactly one coarse
     upload for its single scene generation.
  4. Batched queries/s >= tolerance * the baseline's (same 0.5-style
     collapse floor as kernel mode; runners differ).

adaptive — gates the variance-adaptive ray-budget + spectral-banding
bench (bench_rmcrt_kernel --adaptive-rays, DESIGN.md §17) against
BENCH_adaptive.json:

    check_bench_regression.py --mode adaptive --current adaptive-smoke.json \\
        --baseline BENCH_adaptive.json

  1. The bitwise neutrality contract held, in this run and the committed
     one: adaptiveRays=false with the knobs set is the fixed fan,
     pilot == cap saturates to the fixed fan, and a single
     {weight=1, kappaScale=1} spectral band is the gray solver.
  2. The headline: total traced segments dropped by at least the floor
     (1.5x) against the fixed fan on the golden fixture...
  3. ...at equal accuracy: the Burns & Christon centerline relative-L2
     against the fixed-fan answer stays under the golden test's 1% band.
     (Both are deterministic given the fixture, so current and baseline
     must both pass; runs differ only in wall time.)
  4. The spectral section is sane: band count matches the baseline, the
     band loop traced more than the gray solve, and the adaptive band
     loop traced less than the fixed-fan band loop.
  5. Adaptive-solve Mseg/s >= tolerance * the baseline's (same 0.5-style
     collapse floor as kernel mode; runners differ).

--self-test runs the embedded fixture suite (pytest-style test_*
functions over synthetic JSON docs) and exits 0/1; CI runs it before
trusting any gate verdict.

Exit code 0 = pass, 1 = regression, 2 = unusable input. Stdlib only.
"""

import argparse
import json
import sys

# --------------------------------------------------------------------------
# Declarative per-mode schema: every key table, floor, and regime bound
# the gates consult. check_* functions read this; nothing else defines
# thresholds.
SCHEMA = {
    "kernel": {
        # Within-run SIMD-vs-scalar floor per reported ISA. On the
        # baseline host the AVX-512 instance measures ~3x at 128^3 and
        # ~2-3x at the 16^3 smoke size, the AVX2 instance ~2x and ~1.4x,
        # so both floors only catch collapses.
        "simd_speedup_floor": {"avx512": 1.5, "avx2": 0.6},
        # Loose ceiling on worst per-ray |simd-scalar|/|scalar|; the
        # simd_march_test harness enforces the real 4096-ULP bound.
        "simd_max_rel_err": 1e-9,
    },
    "scaling": {
        "models": ("titan_default", "calibrated"),
        "studies": ("medium", "large"),
        # Paper Section V headline efficiencies, gated on the
        # Titan-default model only. Slightly looser than the C++ shape
        # gate's +-0.06 so this script is never the flakier of the two.
        "paper_eff": {"eff_4096_to_8192": 0.96, "eff_4096_to_16384": 0.89},
        "paper_eff_tol": 0.08,
        "eff_keys": ("eff_4096_to_8192", "eff_4096_to_16384"),
        "comm_speedup_range": (2.0, 5.0),  # paper Table I: 2.27-4.40x
        # Current vs baseline: identical deterministic arithmetic
        # modulo libm.
        "value_rtol": 0.05,
    },
    "service": {
        "section": "batched",
        "required_numbers": ("queries_per_s", "p50_ms", "p99_ms",
                             "submitted", "completed", "rejected",
                             "coarse_uploads"),
    },
    "adaptive": {
        # The headline: segments traced by the adaptive controller vs the
        # fixed fan on the golden fixture (the calibrated operating point
        # measures ~1.7x; 1.5 is the acceptance floor, not a noise bound —
        # budgets are deterministic, so this never flakes).
        "segment_reduction_floor": 1.5,
        # Burns & Christon centerline relative-L2 of the adaptive answer
        # against the fixed-fan answer: the golden test's 1% band.
        "rel_l2_centerline_max": 0.01,
        # (section, flag): bitwise neutrality gates that must be true.
        "bitwise_flags": (
            ("adaptive", "bitwise_off_identical"),
            ("adaptive", "bitwise_saturated_identical"),
            ("spectral", "bitwise_single_band"),
        ),
    },
}


class UnusableInput(Exception):
    """A bench JSON exists but is missing a key/sample the gate needs.

    Distinct from a regression: the measurement never happened (wrong
    bench binary, a mode like --adaptive-rays that writes a different
    schema, a half-written file), so the gate must say exactly what is
    missing and exit 2, not crash with a traceback or report FAIL.
    """


def require_number(mapping, key, where):
    value = mapping.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise UnusableInput(
            f"{where}: missing or non-numeric key '{key}' "
            f"(got {value!r}) — wrong or incomplete bench JSON?")
    return float(value)


def require_section(doc, key, path):
    entry = doc.get(key)
    if not isinstance(entry, dict):
        raise UnusableInput(
            f"{path}: missing section '{key}' — wrong or incomplete "
            "bench JSON?")
    return entry


# --- kernel mode ------------------------------------------------------------

def single_thread_mseg(doc, path):
    for sample in doc.get("sweep", []):
        if sample.get("threads") == 1:
            return require_number(sample, "mseg_per_s",
                                  f"{path} sweep threads=1")
    raise UnusableInput(f"{path}: no threads==1 sample in 'sweep' — "
                        "wrong or incomplete bench JSON?")


def check_kernel_bitwise(doc):
    return [f"sweep threads={sample.get('threads')}"
            for sample in doc.get("sweep", [])
            if sample.get("bitwise_match") is not True]


def check_simd(current, baseline, cur_path, base_path):
    """Gate the simd_microbench section; raises UnusableInput if absent."""
    schema = SCHEMA["kernel"]
    failures = []
    for doc, path in ((current, cur_path), (baseline, base_path)):
        if not isinstance(doc.get("simd_microbench"), dict):
            raise UnusableInput(
                f"{path}: no 'simd_microbench' section — bench binary or "
                "baseline predates the SIMD packet march; refresh it with "
                "a full bench_rmcrt_kernel run")
    entry = current["simd_microbench"]
    where = f"{cur_path} simd_microbench"
    if entry.get("supported") is not True:
        print("simd microbench: host unsupported, perf floor skipped")
        return failures
    isa = entry.get("isa")
    floor = schema["simd_speedup_floor"].get(isa)
    if floor is None:
        raise UnusableInput(
            f"{where}: supported host reports unknown isa {isa!r}")
    speedup = require_number(entry, "speedup", where)
    scalar = require_number(entry, "scalar_mseg_per_s", where)
    simd = require_number(entry, "simd_mseg_per_s", where)
    rel_err = require_number(entry, "max_rel_err", where)
    verdict = "OK" if speedup >= floor else "FAIL"
    print(f"simd microbench [{isa}]: simd {simd:.2f} vs scalar "
          f"{scalar:.2f} Mseg/s ({speedup:.2f}x, floor {floor}) [{verdict}]")
    if speedup < floor:
        failures.append(
            f"simd packet march collapsed ({speedup:.2f}x < {floor}x "
            f"on {isa})")
    if rel_err > schema["simd_max_rel_err"]:
        failures.append(
            f"simd microbench max_rel_err {rel_err:.3e} exceeds "
            f"{schema['simd_max_rel_err']:.0e} — vector exp or lane "
            "masking broke")
    return failures


def check_kernel(current, baseline, cur_path, base_path, tolerance):
    failures = []
    bad_bitwise = check_kernel_bitwise(current)
    if bad_bitwise:
        failures.append("bitwise mismatch in: " + ", ".join(bad_bitwise))

    cur = single_thread_mseg(current, cur_path)
    base = single_thread_mseg(baseline, base_path)
    floor = tolerance * base
    verdict = "OK" if cur >= floor else "FAIL"
    print(f"single-thread: current {cur:.2f} Mseg/s vs baseline "
          f"{base:.2f} Mseg/s (floor {floor:.2f}, x{tolerance}) "
          f"[{verdict}]")
    if cur < floor:
        failures.append(
            f"single-thread Mseg/s collapsed: {cur:.2f} < {floor:.2f}")

    failures.extend(check_simd(current, baseline, cur_path, base_path))
    return failures


# --- scaling mode -----------------------------------------------------------

def scaling_model(doc, name, path):
    models = doc.get("models")
    if not isinstance(models, dict) or not isinstance(models.get(name), dict):
        raise UnusableInput(
            f"{path}: missing scaling key 'models.{name}' — not a "
            "bench_scaling JSON? Regenerate with "
            "bench_scaling --smoke --json=...")
    return models[name]


def scaling_series(model, study, path):
    where = f"{path} {study}"
    entry = model.get(study)
    if not isinstance(entry, dict) or not isinstance(
            entry.get("series"), list) or not entry["series"]:
        raise UnusableInput(
            f"{where}: missing scaling key '{study}.series'")
    out = {}
    for se in entry["series"]:
        patch = int(require_number(se, "patch_size", where))
        pts = se.get("points")
        if not isinstance(pts, list) or not pts:
            raise UnusableInput(f"{where}: patch {patch} has no points")
        out[patch] = [(int(require_number(p, "gpus", where)),
                       require_number(p, "seconds", where)) for p in pts]
    return out


def check_scaling_model(current, baseline, name, cur_path, base_path):
    schema = SCHEMA["scaling"]
    rtol = schema["value_rtol"]
    failures = []
    cur = scaling_model(current, name, cur_path)
    base = scaling_model(baseline, name, base_path)
    for study in schema["studies"]:
        cur_series = scaling_series(cur, study, cur_path)
        base_series = scaling_series(base, study, base_path)
        if set(cur_series) != set(base_series):
            failures.append(
                f"{name} {study}: patch sizes {sorted(cur_series)} != "
                f"baseline {sorted(base_series)}")
            continue
        # Monotone decrease while over-decomposed, and agreement with
        # the baseline values point by point.
        for patch, pts in cur_series.items():
            for (ga, ta), (gb, tb) in zip(pts, pts[1:]):
                if tb >= ta:
                    failures.append(
                        f"{name} {study} {patch}^3: time stopped falling "
                        f"at {gb} GPUs ({tb:.4f} >= {ta:.4f} s)")
            for (g, t), (bg, bt) in zip(pts, base_series[patch]):
                if g != bg:
                    failures.append(
                        f"{name} {study} {patch}^3: GPU grid {g} != "
                        f"baseline {bg}")
                elif abs(t - bt) > rtol * bt:
                    failures.append(
                        f"{name} {study} {patch}^3 @{g}: {t:.4f} s drifted "
                        f"from baseline {bt:.4f} s (> {rtol:.0%})")
        # The paper's crossover: the largest feasible patch wins at every
        # GPU count, and the winner must match the baseline's.
        by_gpus = {}
        for patch, pts in cur_series.items():
            for g, t in pts:
                by_gpus.setdefault(g, {})[patch] = t
        for g, entries in sorted(by_gpus.items()):
            winner = min(entries, key=entries.get)
            if winner != max(entries):
                failures.append(
                    f"{name} {study} @{g} GPUs: {winner}^3 beats the "
                    f"largest feasible patch {max(entries)}^3 — crossover "
                    "flipped")
    eff = cur.get("efficiency_large_p16")
    if not isinstance(eff, dict):
        raise UnusableInput(
            f"{cur_path}: missing scaling key "
            f"'models.{name}.efficiency_large_p16'")
    for key in schema["eff_keys"]:
        e = require_number(eff, key, f"{cur_path} {name}")
        if name == "titan_default":
            ref = schema["paper_eff"][key]
            tol = schema["paper_eff_tol"]
            verdict = "OK" if abs(e - ref) <= tol else "FAIL"
            print(f"{name} {key}: {e:.4f} vs paper {ref:.2f} "
                  f"(+-{tol}) [{verdict}]")
            if abs(e - ref) > tol:
                failures.append(
                    f"{name} {key} = {e:.4f} left the paper regime "
                    f"{ref:.2f}+-{tol}")
        if e > 1.0 + 1e-9:
            failures.append(f"{name} {key} = {e:.4f} exceeds 1.0")
    lo, hi = schema["comm_speedup_range"]
    for row in cur.get("comm_study", []):
        s = require_number(row, "speedup", f"{cur_path} {name} comm_study")
        if not lo <= s <= hi:
            failures.append(
                f"{name} comm_study @{row.get('nodes')} nodes: speedup "
                f"{s:.2f}x outside [{lo}, {hi}] (paper Table I: 2.27-4.40x)")
    return failures


def check_scaling(current, baseline, cur_path, base_path, tolerance):
    del tolerance  # deterministic arithmetic; SCHEMA carries its own rtol
    failures = []
    for name in SCHEMA["scaling"]["models"]:
        failures.extend(
            check_scaling_model(current, baseline, name, cur_path,
                                base_path))
    return failures


# --- service mode -----------------------------------------------------------

def check_service(current, baseline, cur_path, base_path, tolerance):
    schema = SCHEMA["service"]
    failures = []

    # 1. Fixed accuracy: every batched response bitwise equal to the
    # one-shot solve of its query, in this run and in the committed one.
    for doc, path in ((current, cur_path), (baseline, base_path)):
        if "bitwise_match" not in doc:
            raise UnusableInput(
                f"{path}: missing 'bitwise_match' — not a bench_service "
                "JSON? Regenerate with bench_service --smoke --json=...")
        if doc["bitwise_match"] is not True:
            failures.append(
                f"{path}: batched responses diverged from the one-shot "
                "solvers (bitwise_match false)")

    name = schema["section"]
    entry = require_section(current, name, cur_path)
    vals = {key: require_number(entry, key, f"{cur_path} {name}")
            for key in schema["required_numbers"]}
    # 2. Accounting reconciles and the gate load ran shed-free.
    if vals["submitted"] != vals["completed"] + vals["rejected"]:
        failures.append(
            f"{name}: submitted {vals['submitted']:.0f} != completed "
            f"{vals['completed']:.0f} + rejected {vals['rejected']:.0f}")
    if vals["rejected"] != 0:
        failures.append(
            f"{name}: {vals['rejected']:.0f} requests shed — the gate "
            "load must run under its admission caps")
    if not vals["p99_ms"] >= vals["p50_ms"] > 0.0:
        failures.append(
            f"{name}: implausible latency quantiles p50 "
            f"{vals['p50_ms']:.3f} ms / p99 {vals['p99_ms']:.3f} ms")

    # 3. The sharing contract: one coarse upload per scene generation.
    if vals["coarse_uploads"] != 1:
        failures.append(
            f"batched run staged {vals['coarse_uploads']:.0f} coarse "
            "uploads for its single scene generation (want exactly 1 — the "
            "shared-upload contract broke)")

    # 4. Throughput collapse vs the committed baseline.
    base_entry = require_section(baseline, name, base_path)
    base_qps = require_number(base_entry, "queries_per_s",
                              f"{base_path} {name}")
    cur_qps = vals["queries_per_s"]
    qps_floor = tolerance * base_qps
    verdict = "OK" if cur_qps >= qps_floor else "FAIL"
    print(f"service throughput: current {cur_qps:.1f} vs baseline "
          f"{base_qps:.1f} queries/s (floor {qps_floor:.1f}, x{tolerance}) "
          f"[{verdict}]")
    if cur_qps < qps_floor:
        failures.append(
            f"batched queries/s collapsed: {cur_qps:.1f} < {qps_floor:.1f}")

    return failures


# --- adaptive mode ----------------------------------------------------------

def check_adaptive(current, baseline, cur_path, base_path, tolerance):
    schema = SCHEMA["adaptive"]
    failures = []

    # 1. Bitwise neutrality in both runs: a segment reduction measured by
    # a controller that perturbs the off path is meaningless.
    for doc, path in ((current, cur_path), (baseline, base_path)):
        for section, flag in schema["bitwise_flags"]:
            entry = require_section(doc, section, path)
            if entry.get(flag) is not True:
                failures.append(
                    f"{path} {section}: {flag} is not true — the "
                    "adaptive/spectral machinery perturbed a path that "
                    "must be bitwise the gray fixed fan")

    # 2+3. Segment reduction at equal accuracy, in both runs (the bench
    # is deterministic given the fixture; only wall time varies).
    floor = schema["segment_reduction_floor"]
    err_max = schema["rel_l2_centerline_max"]
    for doc, path in ((current, cur_path), (baseline, base_path)):
        entry = require_section(doc, "adaptive", path)
        where = f"{path} adaptive"
        reduction = require_number(entry, "segment_reduction", where)
        rel_l2 = require_number(entry, "rel_l2_centerline", where)
        verdict = "OK" if reduction >= floor and rel_l2 <= err_max else "FAIL"
        print(f"adaptive [{path}]: {reduction:.2f}x segment reduction "
              f"(floor {floor}) at centerline rel L2 {rel_l2:.3e} "
              f"(ceiling {err_max}) [{verdict}]")
        if reduction < floor:
            failures.append(
                f"{where}: segment reduction {reduction:.2f}x below the "
                f"{floor}x acceptance floor")
        if rel_l2 > err_max:
            failures.append(
                f"{where}: centerline rel L2 {rel_l2:.3e} exceeds the "
                f"golden {err_max} band — the budget controller is "
                "trading away accuracy")

    # 4. Spectral section shape.
    cur_sp = require_section(current, "spectral", cur_path)
    base_sp = require_section(baseline, "spectral", base_path)
    where = f"{cur_path} spectral"
    bands = require_number(cur_sp, "bands", where)
    if bands != require_number(base_sp, "bands", f"{base_path} spectral"):
        failures.append(
            f"spectral band count {bands:.0f} != baseline — not comparable")
    rates = cur_sp.get("band_mseg_per_s")
    if not isinstance(rates, list) or len(rates) != int(bands):
        raise UnusableInput(
            f"{where}: 'band_mseg_per_s' must list one rate per band "
            f"(got {rates!r})")
    gray = require_number(cur_sp, "gray_segments", where)
    band_seg = require_number(cur_sp, "band_segments", where)
    ad_band_seg = require_number(cur_sp, "adaptive_band_segments", where)
    if bands > 1 and not band_seg > gray:
        failures.append(
            f"{where}: {bands:.0f}-band loop traced {band_seg:.0f} segments "
            f"vs gray {gray:.0f} — the band loop is not running")
    if not ad_band_seg < band_seg:
        failures.append(
            f"{where}: adaptive band loop traced {ad_band_seg:.0f} segments "
            f"vs fixed-fan {band_seg:.0f} — budgets are not propagating "
            "through the spectral pipeline")

    # 5. Throughput collapse vs the committed baseline.
    cur_mseg = require_number(require_section(current, "adaptive", cur_path),
                              "adaptive_mseg_per_s", f"{cur_path} adaptive")
    base_mseg = require_number(
        require_section(baseline, "adaptive", base_path),
        "adaptive_mseg_per_s", f"{base_path} adaptive")
    mseg_floor = tolerance * base_mseg
    verdict = "OK" if cur_mseg >= mseg_floor else "FAIL"
    print(f"adaptive throughput: current {cur_mseg:.2f} vs baseline "
          f"{base_mseg:.2f} Mseg/s (floor {mseg_floor:.2f}, x{tolerance}) "
          f"[{verdict}]")
    if cur_mseg < mseg_floor:
        failures.append(
            f"adaptive-solve Mseg/s collapsed: {cur_mseg:.2f} < "
            f"{mseg_floor:.2f}")

    return failures


MODES = {
    "kernel": (check_kernel, "perf gate passed"),
    "scaling": (check_scaling, "scaling shape gate passed"),
    "service": (check_service, "service gate passed"),
    "adaptive": (check_adaptive, "adaptive sampling gate passed"),
}


# --- self-test --------------------------------------------------------------
# Pytest-style fixtures + test_* functions over synthetic docs, run by
# --self-test (and by CI before any gate verdict is trusted). Stdlib
# only, so no pytest dependency: tests assert, the runner collects.

def kernel_fixture(mseg=10.0, bitwise=True):
    return {
        "sweep": [{"threads": 1, "mseg_per_s": mseg,
                   "bitwise_match": bitwise}],
        "simd_microbench": {"supported": False},
    }


def scaling_fixture(seconds=4.0):
    def series():
        return {"series": [{"patch_size": 32,
                            "points": [{"gpus": 1, "seconds": seconds},
                                       {"gpus": 2, "seconds": seconds / 2}]}]}
    model = {
        "medium": series(),
        "large": series(),
        "efficiency_large_p16": {"eff_4096_to_8192": 0.96,
                                 "eff_4096_to_16384": 0.89},
        "comm_study": [{"nodes": 4, "speedup": 3.0}],
    }
    return {"models": {"titan_default": model,
                       "calibrated": json.loads(json.dumps(model))}}


def service_fixture(qps=2000.0, uploads=1, rejected=0, bitwise=True):
    n = 96.0
    return {
        "bitwise_match": bitwise,
        "batched": {"queries_per_s": qps, "p50_ms": 3.0, "p99_ms": 8.0,
                    "submitted": n, "completed": n - rejected,
                    "rejected": rejected, "coarse_uploads": uploads},
    }


def adaptive_fixture(reduction=1.7, rel_l2=0.007, off=True, sat=True,
                     single=True, mseg=10.0, band_seg=3.0e8,
                     ad_band_seg=1.7e8):
    return {
        "adaptive": {
            "segment_reduction": reduction,
            "rel_l2_centerline": rel_l2,
            "adaptive_mseg_per_s": mseg,
            "bitwise_off_identical": off,
            "bitwise_saturated_identical": sat,
        },
        "spectral": {
            "bands": 3,
            "bitwise_single_band": single,
            "gray_segments": 1.2e8,
            "band_segments": band_seg,
            "adaptive_band_segments": ad_band_seg,
            "band_mseg_per_s": [10.0, 10.0, 10.0],
        },
    }


def test_kernel_pass():
    assert check_kernel(kernel_fixture(), kernel_fixture(), "cur", "base",
                        0.5) == []


def test_kernel_single_thread_collapse():
    fails = check_kernel(kernel_fixture(mseg=1.0), kernel_fixture(mseg=10.0),
                         "cur", "base", 0.5)
    assert any("collapsed" in f for f in fails), fails


def test_kernel_bitwise_mismatch():
    fails = check_kernel(kernel_fixture(bitwise=False), kernel_fixture(),
                         "cur", "base", 0.5)
    assert any("bitwise" in f for f in fails), fails


def test_kernel_missing_sweep_is_unusable():
    try:
        check_kernel({"simd_microbench": {"supported": False}},
                     kernel_fixture(), "cur", "base", 0.5)
    except UnusableInput:
        return
    raise AssertionError("missing sweep must raise UnusableInput")


def test_scaling_pass():
    assert check_scaling(scaling_fixture(), scaling_fixture(), "cur",
                         "base", 0.5) == []


def test_scaling_value_drift_fails():
    fails = check_scaling(scaling_fixture(seconds=6.0), scaling_fixture(),
                          "cur", "base", 0.5)
    assert any("drifted" in f for f in fails), fails


def test_scaling_missing_models_is_unusable():
    try:
        check_scaling({}, scaling_fixture(), "cur", "base", 0.5)
    except UnusableInput:
        return
    raise AssertionError("missing models must raise UnusableInput")


def test_service_pass():
    assert check_service(service_fixture(), service_fixture(), "cur",
                         "base", 0.5) == []


def test_service_bitwise_false_fails():
    fails = check_service(service_fixture(bitwise=False), service_fixture(),
                          "cur", "base", 0.5)
    assert any("bitwise_match" in f for f in fails), fails


def test_service_shared_upload_contract():
    fails = check_service(service_fixture(uploads=5), service_fixture(),
                          "cur", "base", 0.5)
    assert any("shared-upload contract" in f for f in fails), fails


def test_service_shed_load_fails():
    fails = check_service(service_fixture(rejected=3), service_fixture(),
                          "cur", "base", 0.5)
    assert any("shed" in f for f in fails), fails


def test_service_throughput_collapse():
    fails = check_service(service_fixture(qps=1200.0),
                          service_fixture(qps=5000.0), "cur", "base", 0.5)
    assert any("queries/s collapsed" in f for f in fails), fails


def test_service_missing_section_is_unusable():
    doc = service_fixture()
    del doc["batched"]
    try:
        check_service(doc, service_fixture(), "cur", "base", 0.5)
    except UnusableInput:
        return
    raise AssertionError("missing section must raise UnusableInput")


def test_adaptive_pass():
    assert check_adaptive(adaptive_fixture(), adaptive_fixture(), "cur",
                          "base", 0.5) == []


def test_adaptive_reduction_floor():
    fails = check_adaptive(adaptive_fixture(reduction=1.2),
                           adaptive_fixture(), "cur", "base", 0.5)
    assert any("acceptance floor" in f for f in fails), fails


def test_adaptive_error_ceiling():
    fails = check_adaptive(adaptive_fixture(rel_l2=0.02),
                           adaptive_fixture(), "cur", "base", 0.5)
    assert any("trading away accuracy" in f for f in fails), fails


def test_adaptive_bitwise_off_fails():
    fails = check_adaptive(adaptive_fixture(off=False), adaptive_fixture(),
                           "cur", "base", 0.5)
    assert any("bitwise_off_identical" in f for f in fails), fails


def test_adaptive_single_band_fails():
    fails = check_adaptive(adaptive_fixture(single=False),
                           adaptive_fixture(), "cur", "base", 0.5)
    assert any("bitwise_single_band" in f for f in fails), fails


def test_adaptive_spectral_budget_leak_fails():
    fails = check_adaptive(adaptive_fixture(ad_band_seg=3.0e8),
                           adaptive_fixture(), "cur", "base", 0.5)
    assert any("not propagating" in f for f in fails), fails


def test_adaptive_throughput_collapse():
    fails = check_adaptive(adaptive_fixture(mseg=1.0),
                           adaptive_fixture(mseg=10.0), "cur", "base", 0.5)
    assert any("Mseg/s collapsed" in f for f in fails), fails


def test_adaptive_missing_section_is_unusable():
    doc = adaptive_fixture()
    del doc["adaptive"]
    try:
        check_adaptive(doc, adaptive_fixture(), "cur", "base", 0.5)
    except UnusableInput:
        return
    raise AssertionError("missing section must raise UnusableInput")


def run_self_test():
    tests = sorted((name, fn) for name, fn in globals().items()
                   if name.startswith("test_") and callable(fn))
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as e:  # noqa: BLE001 — report, keep running
            failed += 1
            print(f"self-test {name}: FAIL ({e})", file=sys.stderr)
        else:
            print(f"self-test {name}: ok")
    print(f"self-test: {len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", choices=sorted(MODES), default="kernel",
                    help="kernel: bench_rmcrt_kernel throughput gate; "
                         "scaling: bench_scaling shape gate; "
                         "service: bench_service accuracy + throughput gate; "
                         "adaptive: adaptive ray-budget + banding gate")
    ap.add_argument("--current",
                    help="JSON written by this run's bench binary")
    ap.add_argument("--baseline",
                    help="committed baseline JSON to compare against")
    ap.add_argument("--tolerance", type=float, default=0.5,
                    help="kernel/service: minimum fraction of the "
                         "baseline throughput that passes (default 0.5)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the embedded fixture suite and exit")
    args = ap.parse_args()

    if args.self_test:
        return run_self_test()
    if not args.current or not args.baseline:
        ap.error("--current and --baseline are required unless --self-test")

    try:
        with open(args.current) as f:
            current = json.load(f)
        with open(args.baseline) as f:
            baseline = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot load bench JSON: {e}", file=sys.stderr)
        return 2

    check, pass_message = MODES[args.mode]
    try:
        failures = check(current, baseline, args.current, args.baseline,
                         args.tolerance)
    except UnusableInput as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if failures:
        for f in failures:
            print(f"REGRESSION: {f}", file=sys.stderr)
        return 1
    print(pass_message)
    return 0


if __name__ == "__main__":
    sys.exit(main())
