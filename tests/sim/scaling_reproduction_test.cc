/// \file scaling_reproduction_test.cc
/// The CI shape gate for the paper's headline claim (DESIGN.md §15):
/// strong scaling of the Burns–Christon 2-level RMCRT benchmark, 512 ->
/// 16,384 GPUs, patch sizes 16^3/32^3/64^3. The suite asserts the
/// paper's qualitative claims twice — against the committed
/// BENCH_scaling.json artifact, and against a fresh in-process smoke
/// study collected through the same calibration chain (committed kernel
/// baseline -> machine model -> event sim) — so a model or calibration
/// regression cannot hide behind a stale artifact, and a corrupted
/// artifact cannot hide behind a healthy model.
///
/// Gated claims:
///  * coverage — the LARGE sweep spans 512..16,384 GPUs; each patch-size
///    curve ends where its decomposition runs out of patches (16^3
///    reaches 16,384; 64^3 stops at 512);
///  * crossover — the largest feasible patch size wins at every GPU
///    count (paper Section V observation 1);
///  * rolloff — every series is monotone decreasing in time, and the
///    per-doubling Eq. 3 efficiency of the 16^3 curve degrades
///    monotonically toward the tail (scaling rolls off as patches/GPU
///    approaches 1);
///  * Eq. 3 headlines — the Titan-default model lands on the paper's
///    96% (4096->8192) and 89% (4096->16,384) within ±6 points; the
///    kernel-calibrated model scales at least as well (slower device =>
///    kernel-dominated => flatter curves) and never exceeds 1;
///  * Table I — local communication time falls as the fixed problem
///    spreads, and the wait-free pool's speedup stays inside the paper's
///    2.27–4.40x regime.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/calibration.h"
#include "sim/scaling_report.h"
#include "util/mini_json.h"

namespace rmcrt::sim {
namespace {

constexpr double kPaperEffTolerance = 0.06;  ///< ±6 points (Section V)

std::string repoPath(const std::string& rel) {
  return std::string(RMCRT_REPO_DIR) + "/" + rel;
}

// ---------------------------------------------------------------------------
// A model variant's sweep in one in-memory form, so the same shape checks
// run against the committed JSON and against a freshly collected report.

struct Pt {
  int gpus = 0;
  std::int64_t patchesPerGpu = 0;
  double seconds = 0;
};

struct CommRow {
  int nodes = 0;
  double beforeS = 0, afterS = 0, speedup = 0;
};

struct ModelData {
  // study name ("medium"/"large") -> patch size -> points.
  std::map<std::string, std::map<int, std::vector<Pt>>> studies;
  std::vector<CommRow> comm;
  double eff4096To8192 = 0, eff4096To16384 = 0, eff512To16384 = 0;
};

ModelData fromJson(const minijson::Value& model) {
  ModelData d;
  for (const char* study : {"medium", "large"}) {
    for (const minijson::Value& se : model.at(study).at("series").array) {
      const int patch = static_cast<int>(se.at("patch_size").number);
      for (const minijson::Value& p : se.at("points").array) {
        d.studies[study][patch].push_back(
            Pt{static_cast<int>(p.at("gpus").number),
               static_cast<std::int64_t>(p.at("patches_per_gpu").number),
               p.at("seconds").number});
      }
    }
  }
  for (const minijson::Value& r : model.at("comm_study").array) {
    d.comm.push_back(CommRow{static_cast<int>(r.at("nodes").number),
                             r.at("before_s").number, r.at("after_s").number,
                             r.at("speedup").number});
  }
  const minijson::Value& eff = model.at("efficiency_large_p16");
  d.eff4096To8192 = eff.at("eff_4096_to_8192").number;
  d.eff4096To16384 = eff.at("eff_4096_to_16384").number;
  d.eff512To16384 = eff.at("eff_512_to_16384").number;
  return d;
}

ModelData fromResult(const ModelScalingResult& r) {
  ModelData d;
  const auto add = [&d](const char* study, const ProblemConfig& base,
                        const std::vector<StrongScalingStudy::Series>& ss) {
    for (const auto& se : ss) {
      ProblemConfig p = base;
      p.patchSize = se.patchSize;
      for (const ScalingPoint& pt : se.points)
        d.studies[study][se.patchSize].push_back(
            Pt{pt.gpus, p.patchesPerRank(pt.gpus), pt.breakdown.total});
    }
  };
  add("medium", mediumProblem(), r.medium);
  add("large", largeProblem(), r.large);
  for (const CommStudyRow& row : r.comm)
    d.comm.push_back(
        CommRow{row.nodes, row.beforeSeconds, row.afterSeconds, row.speedup});
  d.eff4096To8192 = r.effLarge16From4096To8192;
  d.eff4096To16384 = r.effLarge16From4096To16384;
  d.eff512To16384 = r.effLarge16From512To16384;
  return d;
}

const minijson::Value& committedDoc() {
  static const minijson::Value doc = [] {
    const std::string path = repoPath("BENCH_scaling.json");
    std::ifstream in(path);
    if (!in)
      throw std::runtime_error("committed scaling baseline missing: " + path);
    std::stringstream buf;
    buf << in.rdbuf();
    return minijson::parse(buf.str());
  }();
  return doc;
}

ModelData committedModel(const std::string& name) {
  return fromJson(committedDoc().at("models").at(name));
}

/// The fresh smoke study: the same calibration chain CI's bench smoke
/// run uses, collected in-process. Deterministic — no timers.
const ScalingReport& freshReport() {
  static const ScalingReport report = collectScalingReport(
      calibrationFromBenchJson(repoPath("BENCH_rmcrt_kernel.json")));
  return report;
}

// ---------------------------------------------------------------------------
// Shape checks (shared between committed artifact and fresh study).

const std::vector<Pt>& seriesOf(const ModelData& d, const std::string& study,
                                int patch) {
  auto si = d.studies.find(study);
  if (si == d.studies.end())
    throw std::runtime_error("study missing: " + study);
  auto pi = si->second.find(patch);
  if (pi == si->second.end())
    throw std::runtime_error(study + " series missing patch " +
                             std::to_string(patch));
  return pi->second;
}

/// Eq. 3 between two points of one series.
double eff(const Pt& a, const Pt& b) {
  return (a.seconds * a.gpus) / (b.seconds * b.gpus);
}

void checkCoverage(const ModelData& d, const std::string& label) {
  SCOPED_TRACE(label);
  // LARGE (Fig. 3): the paper's 512 -> 16,384 sweep. Each curve ends at
  // its own decomposition limit: 512^3/16^3 = 32768 patches (>= 16384
  // GPUs), /32^3 = 4096, /64^3 = 512.
  const std::map<int, int> largeEnds{{16, 16384}, {32, 4096}, {64, 512}};
  for (const auto& [patch, endGpus] : largeEnds) {
    const auto& s = seriesOf(d, "large", patch);
    ASSERT_FALSE(s.empty());
    EXPECT_EQ(s.back().gpus, endGpus) << "large " << patch << "^3";
    EXPECT_GE(s.back().patchesPerGpu, 1);
  }
  for (int g : {512, 1024, 2048, 4096, 8192, 16384}) {
    const auto& s = seriesOf(d, "large", 16);
    EXPECT_TRUE(std::any_of(s.begin(), s.end(),
                            [g](const Pt& p) { return p.gpus == g; }))
        << "large 16^3 missing " << g << " GPUs";
  }
  // MEDIUM (Fig. 2): 256^3/16^3 = 4096, /32^3 = 512, /64^3 = 64.
  const std::map<int, int> mediumEnds{{16, 4096}, {32, 512}, {64, 64}};
  for (const auto& [patch, endGpus] : mediumEnds)
    EXPECT_EQ(seriesOf(d, "medium", patch).back().gpus, endGpus)
        << "medium " << patch << "^3";
  // "The 16^3 curve extends furthest."
  for (const char* study : {"medium", "large"}) {
    EXPECT_GT(seriesOf(d, study, 16).back().gpus,
              seriesOf(d, study, 32).back().gpus);
    EXPECT_GT(seriesOf(d, study, 32).back().gpus,
              seriesOf(d, study, 64).back().gpus);
  }
}

void checkCrossover(const ModelData& d, const std::string& label) {
  SCOPED_TRACE(label);
  // Paper Section V observation 1: larger patches give more work per
  // kernel, so the largest patch size still feasible wins at every GPU
  // count — 64^3 while it lasts, then 32^3, then 16^3 alone.
  for (const auto& [study, byPatch] : d.studies) {
    std::map<int, std::map<int, double>> byGpus;  // gpus -> patch -> s
    for (const auto& [patch, pts] : byPatch)
      for (const Pt& p : pts) byGpus[p.gpus][patch] = p.seconds;
    for (const auto& [gpus, entries] : byGpus) {
      const int largestFeasible = entries.rbegin()->first;
      for (const auto& [patch, seconds] : entries) {
        if (patch == largestFeasible) continue;
        EXPECT_LT(entries.at(largestFeasible), seconds)
            << study << " @" << gpus << " GPUs: " << largestFeasible
            << "^3 must beat " << patch << "^3";
      }
    }
  }
}

void checkRolloff(const ModelData& d, const std::string& label,
                  bool titanStrict) {
  SCOPED_TRACE(label);
  // Time falls monotonically while over-decomposed (every committed
  // point has >= 1 patch per GPU)...
  for (const auto& [study, byPatch] : d.studies) {
    for (const auto& [patch, pts] : byPatch)
      for (std::size_t i = 1; i < pts.size(); ++i)
        EXPECT_LT(pts[i].seconds, pts[i - 1].seconds)
            << study << " " << patch << "^3 @" << pts[i].gpus;
  }
  // ...but the per-doubling Eq. 3 efficiency of the 16^3 curves degrades
  // monotonically toward the tail: scaling rolls off as patches/GPU
  // approaches 1, exactly where the paper's figures flatten.
  for (const char* study : {"medium", "large"}) {
    const auto& s = seriesOf(d, study, 16);
    double prev = 1.0 + 1e-9;
    for (std::size_t i = 1; i < s.size(); ++i) {
      const double e = eff(s[i - 1], s[i]);
      EXPECT_LE(e, prev + 1e-9)
          << study << " 16^3 doubling to " << s[i].gpus
          << ": rolloff must not recover";
      EXPECT_LE(e, 1.0 + 1e-9);
      prev = e;
    }
    EXPECT_LT(eff(s[s.size() - 2], s.back()), eff(s[0], s[1]))
        << study << ": the last doubling must be the least efficient";
  }
  if (titanStrict) {
    // On the Titan-default model the tail rolloff is pronounced: the
    // final 8192->16384 doubling of the LARGE 16^3 curve (2 patches/GPU)
    // drops below the paper's 96% mid-sweep efficiency.
    const auto& s = seriesOf(d, "large", 16);
    EXPECT_LT(eff(s[s.size() - 2], s.back()), 0.96);
    EXPECT_EQ(s.back().patchesPerGpu, 2);
  }
}

void checkEfficiency(const ModelData& d, const std::string& label,
                     bool titanStrict) {
  SCOPED_TRACE(label);
  EXPECT_GT(d.eff4096To8192, d.eff4096To16384);
  EXPECT_LE(d.eff4096To8192, 1.0 + 1e-9);
  EXPECT_LE(d.eff4096To16384, 1.0 + 1e-9);
  // Whole-sweep efficiency (512 -> 16,384, 32x more GPUs) stays high —
  // the strong-scaling claim survives the full sweep in either model.
  EXPECT_GT(d.eff512To16384, 0.85);
  if (titanStrict) {
    EXPECT_NEAR(d.eff4096To8192, PaperReference::eff4096To8192,
                kPaperEffTolerance);
    EXPECT_NEAR(d.eff4096To16384, PaperReference::eff4096To16384,
                kPaperEffTolerance);
  } else {
    // The kernel-calibrated device is slower than a K20X, so the kernel
    // dominates and scaling can only flatten relative to Titan defaults.
    EXPECT_GE(d.eff4096To8192, PaperReference::eff4096To8192 - 0.01);
    EXPECT_GE(d.eff4096To16384, PaperReference::eff4096To16384 - 0.01);
  }
}

void checkCommStudy(const ModelData& d, const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_GE(d.comm.size(), 2u);
  EXPECT_EQ(d.comm.front().nodes, 512);
  EXPECT_EQ(d.comm.back().nodes, 16384);
  for (std::size_t i = 0; i < d.comm.size(); ++i) {
    const CommRow& r = d.comm[i];
    EXPECT_GT(r.beforeS, r.afterS) << r.nodes;
    // Paper Table I: 2.27x .. 4.40x across 512..16k nodes; the model
    // must stay in that regime (with headroom for calibration drift).
    EXPECT_GT(r.speedup, 2.0) << r.nodes;
    EXPECT_LT(r.speedup, 5.0) << r.nodes;
    if (i > 0) {
      // Fig. 1 shape: both curves fall as the fixed problem spreads.
      EXPECT_LT(r.beforeS, d.comm[i - 1].beforeS) << r.nodes;
      EXPECT_LT(r.afterS, d.comm[i - 1].afterS) << r.nodes;
    }
  }
  // Order-of-magnitude agreement with Table I's first row (6.25 s).
  EXPECT_GT(d.comm.front().beforeS, 1.0);
  EXPECT_LT(d.comm.front().beforeS, 20.0);
}

// ---------------------------------------------------------------------------
// Committed-artifact gates.

TEST(ScalingReproduction, CommittedBaselineParsesWithSchema) {
  const minijson::Value& doc = committedDoc();
  EXPECT_EQ(doc.at("benchmark").str, "rmcrt_scaling_study");
  ASSERT_TRUE(doc.has("models"));
  for (const char* model : {"titan_default", "calibrated"}) {
    const minijson::Value& m = doc.at("models").at(model);
    for (const char* key :
         {"gpu_mseg_per_s", "medium", "large", "comm_study",
          "efficiency_large_p16"})
      EXPECT_TRUE(m.has(key)) << model << "." << key;
  }
  const minijson::Value& cal = doc.at("calibration");
  for (const char* key :
       {"source", "detail", "host_mseg_per_s", "host_to_gpu_scale"})
    EXPECT_TRUE(cal.has(key)) << "calibration." << key;
  // The committed artifact must be traceable to the committed kernel
  // baseline, not to a live host measurement or the fallback constants.
  EXPECT_EQ(cal.at("source").str, "bench_json");
  EXPECT_GT(cal.at("host_mseg_per_s").number, 0.0);
}

TEST(ScalingReproduction, CommittedSweepCoversPaperRange) {
  checkCoverage(committedModel("titan_default"), "titan_default");
  checkCoverage(committedModel("calibrated"), "calibrated");
}

TEST(ScalingReproduction, CommittedLargestFeasiblePatchWins) {
  checkCrossover(committedModel("titan_default"), "titan_default");
  checkCrossover(committedModel("calibrated"), "calibrated");
}

TEST(ScalingReproduction, CommittedScalingRollsOffAtTheTail) {
  checkRolloff(committedModel("titan_default"), "titan_default",
               /*titanStrict=*/true);
  checkRolloff(committedModel("calibrated"), "calibrated",
               /*titanStrict=*/false);
}

TEST(ScalingReproduction, CommittedEq3EfficiencyBounds) {
  checkEfficiency(committedModel("titan_default"), "titan_default",
                  /*titanStrict=*/true);
  checkEfficiency(committedModel("calibrated"), "calibrated",
                  /*titanStrict=*/false);
}

TEST(ScalingReproduction, CommittedTableICommTrends) {
  checkCommStudy(committedModel("titan_default"), "titan_default");
  checkCommStudy(committedModel("calibrated"), "calibrated");
}

// ---------------------------------------------------------------------------
// Fresh-smoke-run gates: the same claims must hold for a study collected
// right now through the calibration chain, and the fresh numbers must
// agree with the committed artifact (both are deterministic functions of
// the committed kernel baseline).

TEST(ScalingReproduction, FreshSmokeStudyReproducesShape) {
  const ScalingReport& r = freshReport();
  EXPECT_EQ(r.calibration.source, CalibrationSource::BenchJson)
      << r.calibration.detail;
  for (const auto* m : {&r.titanDefault, &r.calibrated}) {
    const bool strict = m->name == "titan_default";
    const ModelData d = fromResult(*m);
    checkCoverage(d, "fresh " + m->name);
    checkCrossover(d, "fresh " + m->name);
    checkRolloff(d, "fresh " + m->name, strict);
    checkEfficiency(d, "fresh " + m->name, strict);
    checkCommStudy(d, "fresh " + m->name);
  }
}

TEST(ScalingReproduction, FreshSmokeStudyMatchesCommittedArtifact) {
  for (const char* name : {"titan_default", "calibrated"}) {
    SCOPED_TRACE(name);
    const ModelData fresh = fromResult(std::string(name) == "titan_default"
                                           ? freshReport().titanDefault
                                           : freshReport().calibrated);
    const ModelData committed = committedModel(name);
    ASSERT_EQ(fresh.studies.size(), committed.studies.size());
    for (const auto& [study, byPatch] : committed.studies) {
      for (const auto& [patch, pts] : byPatch) {
        const auto& fpts = seriesOf(fresh, study, patch);
        ASSERT_EQ(fpts.size(), pts.size()) << study << " " << patch;
        for (std::size_t i = 0; i < pts.size(); ++i) {
          EXPECT_EQ(fpts[i].gpus, pts[i].gpus);
          // The committed JSON rounds to 6 decimals; beyond that the two
          // sides are the same deterministic arithmetic.
          EXPECT_NEAR(fpts[i].seconds, pts[i].seconds,
                      1e-5 + 1e-5 * pts[i].seconds)
              << study << " " << patch << "^3 @" << pts[i].gpus;
        }
      }
    }
    EXPECT_NEAR(fresh.eff4096To8192, committed.eff4096To8192, 1e-5);
    EXPECT_NEAR(fresh.eff4096To16384, committed.eff4096To16384, 1e-5);
  }
}

// ---------------------------------------------------------------------------
// Emitter schema and fallback determinism.

TEST(ScalingReproduction, EmittedJsonParsesWithSchema) {
  // Schema-by-parsing: the exact bytes bench_scaling writes must
  // round-trip through the JSON grammar with every key the gates above
  // consume.
  std::stringstream ss;
  writeScalingReportJson(ss, freshReport(), /*smoke=*/true);
  minijson::Value doc;
  ASSERT_NO_THROW(doc = minijson::parse(ss.str()));
  EXPECT_TRUE(doc.at("smoke").boolean);
  for (const char* model : {"titan_default", "calibrated"}) {
    const ModelData d = fromJson(doc.at("models").at(model));
    EXPECT_EQ(d.studies.at("large").at(16).back().gpus, 16384);
    EXPECT_EQ(d.comm.size(), 6u);
  }
  const minijson::Value& paper = doc.at("paper");
  EXPECT_DOUBLE_EQ(paper.at("eff_4096_to_8192").number, 0.96);
  EXPECT_DOUBLE_EQ(paper.at("eff_4096_to_16384").number, 0.89);
}

TEST(ScalingReproduction, FallbackCalibrationKeepsTheShape) {
  // A host without any committed baseline still produces a study with
  // the paper's shape — the gate never depends on a file that may be
  // absent in a fresh checkout of only the sources.
  const Calibration fb =
      calibrationFromBenchJson("/nonexistent/kernel.json");
  EXPECT_EQ(fb.source, CalibrationSource::Fallback);
  const ScalingReport r = collectScalingReport(fb);
  const ModelData d = fromResult(r.calibrated);
  checkCoverage(d, "fallback calibrated");
  checkCrossover(d, "fallback calibrated");
  checkRolloff(d, "fallback calibrated", /*titanStrict=*/false);
}

}  // namespace
}  // namespace rmcrt::sim
