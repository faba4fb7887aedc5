// rangesyn benchmark harness: three workloads, measured from outside the
// program by timing calls into the library's public functions and by
// driving a real `rangesyn serve` daemon over RSP1.
//
//   serve-point  closed loop of 1-range requests against a small catalog
//   serve-batch  closed loop of 256-range requests against ~25 MB of
//                large synopses (cold start = read, CRC, parse, compile)
//   build        the paper's constructions, each pass ending in a catalog
//                refresh (save with fsync, load, flat compile)
//
// Usage: perfbench_harness --workload=W --seed=N --seconds=S --trace=0|1
//          --workdir=DIR [--inject=FAULT]
// The last line of stdout is the JSON result. README.md documents every
// metric and input.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/crc32c.h"
#include "core/fs.h"
#include "core/random.h"
#include "core/threadpool.h"
#include "data/distribution.h"
#include "data/rounding.h"
#include "engine/catalog.h"
#include "engine/factory.h"
#include "histogram/bucket_cost.h"
#include "histogram/dp.h"
#include "histogram/opt_a_dp.h"
#include "histogram/prefix_stats.h"
#include "obs/metrics.h"
#include "qpath/flat_synopsis.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "support.h"

namespace perfbench {
namespace {

using rangesyn::FlatQuery;
using rangesyn::FlatSynopsis;
using rangesyn::SynopsisCatalog;
using rangesyn::SynopsisSpec;

// ---------------------------------------------------------------------------
// Fixed settings. Thread and connection counts stay within a 4-vCPU host.

constexpr int kBuildThreads = 2;  // library thread pool in the harness
// The daemon's --threads. 1 evaluates each request inline on its
// connection thread: with a pool, ThreadPool::Submit can lose the wakeup of
// an idle worker (it notifies without holding the sleep mutex), and the
// request then waits forever (see CHANGES.md).
constexpr int kDaemonThreads = 1;
constexpr double kWarmupSeconds = 1.0;  // serving traffic before measuring
constexpr uint32_t kDeadlineMs = 10000;
// Serving metrics report this quantile over the window's slices (1 - it
// for the rate): the quietest quarter. Interference from other tenants of
// the host only adds time, so the low quantile is the steadiest figure.
constexpr double kQuietQuantile = 0.25;
// A run that is still going after this long is stuck in the program; the
// watchdog kills the daemon and exits non-zero.
constexpr unsigned kWatchdogSeconds = 150;
// 256-range batches answered on each refreshed view per build pass.
constexpr int kVerifyBatches = 64;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
  std::string cli;
  /// Self-test fault: wrong-answer, drifted-sse, dropped-reply,
  /// unbalanced-drain. Empty in real runs.
  std::string inject;
};

/// One metric of the result line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Everything a run reports.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
};

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

double GeoMean(const std::vector<double>& values) {
  Require(!values.empty(), "geometric mean of no values");
  double log_sum = 0;
  for (double v : values) {
    Require(v > 0 && std::isfinite(v), "non-positive accuracy ratio");
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

std::vector<int64_t> Rounded(const std::vector<double>& values,
                             uint64_t seed) {
  rangesyn::Rng rng(seed);
  return Take(rangesyn::RandomRound(values, rangesyn::RandomRoundingMode::kHalf,
                                    &rng),
              "RandomRound");
}

std::vector<int64_t> NamedInput(const std::string& family, int64_t n,
                                double volume, uint64_t seed) {
  rangesyn::Rng rng(seed);
  return Rounded(Take(rangesyn::MakeNamedDistribution(family, n, volume, &rng),
                      "MakeNamedDistribution " + family),
                 seed + 1);
}

/// A uniformly random range 1 <= a <= b <= n.
FlatQuery RandomRange(rangesyn::Rng* rng, int64_t n) {
  int64_t a = rng->NextInt(1, n);
  int64_t b = rng->NextInt(1, n);
  if (a > b) std::swap(a, b);
  return {a, b};
}

// ---------------------------------------------------------------------------
// Catalog entries and accuracy.

/// One synopsis of a workload's catalog, with the counts it summarizes.
struct Entry {
  std::string key;
  std::vector<int64_t> counts;
  SynopsisSpec spec;
  /// Equi-width at 2n words: one bucket per value, answers are exact.
  bool lossless = false;
};

Entry MakeEntry(std::string key, std::vector<int64_t> counts,
                std::string method, int64_t units) {
  Entry e;
  e.key = std::move(key);
  e.counts = std::move(counts);
  e.spec.method = std::move(method);
  e.spec.budget_words =
      units * Take(rangesyn::WordsPerUnit(e.spec.method), "WordsPerUnit");
  return e;
}

Entry LosslessEntry(std::string key, std::vector<int64_t> counts) {
  const int64_t n = static_cast<int64_t>(counts.size());
  Entry e = MakeEntry(std::move(key), std::move(counts), "equiwidth", n);
  e.lossless = true;
  return e;
}

/// Registers every entry into `catalog`, timing each registration (which
/// runs the factory build) and correcting it with the reference loop.
/// Returns the corrected total in seconds.
double RegisterAll(const std::vector<Entry>& entries, SynopsisCatalog* catalog,
                   RefClock* ref) {
  double total_ns = 0;
  for (const Entry& e : entries) {
    rangesyn::AttributeDistribution dist;
    dist.domain_lo = 1;
    dist.counts = e.counts;
    const int64_t t0 = NowNs();
    RequireOk(catalog->RegisterDistribution(e.key, std::move(dist), e.spec),
              "register " + e.key);
    const double corrected = ref->Correct(NowNs() - t0);
    total_ns += corrected;
  }
  return total_ns / 1e9;
}

/// Sum of squared errors of `view` against exact sums and of the one-bucket
/// estimate, over `ranges` (answered in 256-range batches).
void RangeErrors(const FlatSynopsis& view, const ExactSums& exact,
                 const std::vector<FlatQuery>& ranges, double* sse,
                 double* sse_one_bucket) {
  *sse = 0;
  *sse_one_bucket = 0;
  std::vector<double> out(256);
  FlatSynopsis::BatchScratch scratch;
  for (size_t i = 0; i < ranges.size(); i += 256) {
    const size_t count = std::min<size_t>(256, ranges.size() - i);
    std::span<const FlatQuery> batch(ranges.data() + i, count);
    RequireOk(view.EstimateMany(batch, std::span<double>(out.data(), count),
                                &scratch),
              "EstimateMany");
    for (size_t j = 0; j < count; ++j) {
      const double truth =
          static_cast<double>(exact.Sum(batch[j].a, batch[j].b));
      const double d = out[j] - truth;
      const double d1 = exact.OneBucket(batch[j].a, batch[j].b) - truth;
      *sse += d * d;
      *sse_one_bucket += d1 * d1;
    }
  }
}

std::vector<FlatQuery> AllRanges(int64_t n) {
  std::vector<FlatQuery> out;
  out.reserve(static_cast<size_t>(n * (n + 1) / 2));
  for (int64_t a = 1; a <= n; ++a) {
    for (int64_t b = a; b <= n; ++b) out.push_back({a, b});
  }
  return out;
}

// ---------------------------------------------------------------------------
// The build set: the paper's constructions on inputs from recorded seeds.

struct BuildInputs {
  std::vector<int64_t> paper;   // 127 keys, Zipf(1.8), the paper's dataset
  std::vector<int64_t> zipf;    // n = 1024, Zipf(1.8), volume 2^30
  std::vector<int64_t> spike;   // n = 1024, background + one 2^36 spike
  std::vector<int64_t> haar;    // n = 2^16 - 1, self-similar, volume 2^34
};

BuildInputs MakeBuildInputs() {
  BuildInputs in;
  in.paper = Take(rangesyn::MakePaperDataset({}), "MakePaperDataset");
  {
    rangesyn::Rng rng(20010521);
    rangesyn::ZipfOptions z;
    z.n = 1024;
    z.alpha = 1.8;
    z.total_volume = std::ldexp(1.0, 30);
    in.zipf = Rounded(Take(rangesyn::ZipfFrequencies(z, &rng), "Zipf"), 11);
  }
  {
    rangesyn::Rng rng(36);
    in.spike.resize(1024);
    for (int64_t& v : in.spike) v = rng.NextInt(0, 4096);
    in.spike[700] = int64_t{1} << 36;
  }
  {
    std::vector<int64_t> selfsim =
        NamedInput("selfsim", 65536, std::ldexp(1.0, 34), 16);
    selfsim.pop_back();
    in.haar = std::move(selfsim);
  }
  return in;
}

/// The entries a build pass registers into its refresh catalog. Each
/// method is built at two budgets on one input so the SSE-monotonicity
/// check has a pair to compare.
std::vector<Entry> BuildEntries(const BuildInputs& in) {
  std::vector<Entry> e;
  e.push_back(MakeEntry("spike.sap0.b8", in.spike, "sap0", 8));
  e.push_back(MakeEntry("spike.sap0.b16", in.spike, "sap0", 16));
  e.push_back(MakeEntry("zipf.sap1.b6", in.zipf, "sap1", 6));
  e.push_back(MakeEntry("zipf.sap1.b12", in.zipf, "sap1", 12));
  e.push_back(MakeEntry("spike.sap1.b12", in.spike, "sap1", 12));
  e.push_back(MakeEntry("zipf.a0.b12", in.zipf, "a0", 12));
  e.push_back(MakeEntry("haar.wave-range-opt.c512", in.haar, "wave-range-opt",
                        512));
  return e;
}

/// Pairs (smaller budget, larger budget) of BuildEntries on one input.
const std::vector<std::pair<std::string, std::string>> kMonotonePairs = {
    {"spike.sap0.b8", "spike.sap0.b16"},
    {"zipf.sap1.b6", "zipf.sap1.b12"},
};

/// Entries whose method is range-optimal for its representation, so each
/// must do no worse than the one-bucket estimate.
bool RangeOptimal(const std::string& method) {
  return method == "sap0" || method == "sap1" || method == "opta" ||
         method == "wave-range-opt";
}

/// What one build pass produced.
struct PassResult {
  double corrected_s = 0;       // construction + refresh, nominal seconds
  double raw_ref_ns = 0;        // mean reference-loop time in the pass
  std::map<std::string, double> layer_ns;  // corrected ns per layer
  double opta_sse_b4 = 0;
  double opta_sse_b6 = 0;
  uint64_t opta_states = 0;
  std::string catalog_path;
  uint64_t ops = 0;
  uint64_t failed = 0;
  /// Entries whose refreshed answers differ from the freshly built ones.
  std::vector<std::string> round_trip_differs;
  uint64_t tasks = 0;
  uint64_t steals = 0;
  /// Refresh verification queries: corrected time of each 256-range
  /// batch, per entry, nominal ns.
  std::vector<std::vector<double>> batch_ns;
};

/// Accuracy of the build set, computed once per run from exact sums.
struct BuildAccuracy {
  std::map<std::string, std::vector<double>> ratio_by_method;
  double geo_mean = 0;
};

class BuildRunner {
 public:
  BuildRunner(const Options& opt, Tracer* tracer)
      : opt_(opt), tracer_(tracer), inputs_(MakeBuildInputs()),
        entries_(BuildEntries(inputs_)) {
    for (const Entry& e : entries_) exact_.emplace(e.key, ExactSums(e.counts));
  }

  /// One pass: OPT-A family builds, catalog registrations (factory builds),
  /// then the refresh (save with fsync, load, flat compile) and a
  /// bit-identity check of the refreshed views against the built
  /// estimators. `pass_index` selects the file name and the query stream.
  PassResult RunPass(int pass_index, bool extra_layers) {
    PassResult r;
    RefClock ref;
    const int32_t pass_span = tracer_->Begin("build.pass");
    const rangesyn::obs::RegistrySnapshot before =
        rangesyn::obs::Registry::Get().Snapshot();
    // Times one operation between reference loops. Extra-layer probes
    // (traced runs only) are not part of the pass time.
    auto timed = [&](const char* layer, const std::function<void()>& op,
                     bool in_pass = true) {
      const int32_t span = tracer_->Begin(layer, pass_span);
      const int64_t t0 = NowNs();
      op();
      const int64_t raw = NowNs() - t0;
      tracer_->End(span);
      const double corrected = ref.Correct(raw);
      r.layer_ns[layer] += corrected;
      if (in_pass) {
        r.corrected_s += corrected / 1e9;
        ++r.ops;
      }
    };

    // OPT-A (paper Theorem 2) at two budgets, and OPT-A-ROUNDED.
    std::unique_ptr<rangesyn::OptAResult> b4, b6;
    timed("histogram.opt_a", [&] {
      rangesyn::OptAOptions o;
      o.max_buckets = 4;
      b4 = std::make_unique<rangesyn::OptAResult>(
          Take(rangesyn::BuildOptA(inputs_.paper, o), "BuildOptA B=4"));
    });
    timed("histogram.opt_a", [&] {
      rangesyn::OptAOptions o;
      o.max_buckets = 6;
      b6 = std::make_unique<rangesyn::OptAResult>(
          Take(rangesyn::BuildOptA(inputs_.paper, o), "BuildOptA B=6"));
    });
    timed("histogram.opt_a", [&] {
      rangesyn::OptARoundedOptions o;
      o.max_buckets = 8;
      o.granularity = 8;
      rounded_ = std::make_unique<rangesyn::AvgHistogram>(
          Take(rangesyn::BuildOptARounded(inputs_.paper, o),
               "BuildOptARounded")
              .histogram);
    });
    r.opta_sse_b4 = b4->optimal_sse;
    r.opta_sse_b6 = b6->optimal_sse;
    r.opta_states = b4->states_explored + b6->states_explored;
    opta_b4_ = std::make_unique<rangesyn::AvgHistogram>(b4->histogram);
    opta_b6_ = std::make_unique<rangesyn::AvgHistogram>(b6->histogram);

    // Catalog registrations: each runs the factory build of one entry.
    SynopsisCatalog catalog;
    for (const Entry& e : entries_) {
      const char* layer = e.spec.method == "sap0"   ? "histogram.sap0"
                          : e.spec.method == "sap1" ? "histogram.sap1"
                          : e.spec.method == "a0"   ? "histogram.a0"
                                                    : "wavelet.range_opt";
      timed(layer, [&] {
        rangesyn::AttributeDistribution dist;
        dist.domain_lo = 1;
        dist.counts = e.counts;
        RequireOk(catalog.RegisterDistribution(e.key, std::move(dist), e.spec),
                  "register " + e.key);
      });
    }

    if (extra_layers) {
      // Layers the builders run internally, timed through their own
      // public entry points on the SAP0 input.
      timed("histogram.prefix_stats", [&] {
        rangesyn::PrefixStats stats(inputs_.spike);
        Require(stats.TotalVolume() == exact_.at("spike.sap0.b8").Total(),
                "PrefixStats total volume");
      }, false);
      rangesyn::PrefixStats stats(inputs_.spike);
      rangesyn::BucketCosts costs(stats);
      timed("histogram.interval_dp", [&] {
        Take(rangesyn::SolveIntervalDp(
                 stats.n(), 8,
                 [&](int64_t l, int64_t h) { return costs.Sap0Cost(l, h); }),
             "SolveIntervalDp");
      }, false);
      timed("engine.serialize", [&] {
        Require(!Take(catalog.Serialize(), "Serialize").empty(),
                "empty catalog serialization");
      }, false);
    }

    // Refresh: the catalog's write side, then its cold read side.
    r.catalog_path = opt_.workdir + "/build-" + std::to_string(pass_index % 2) +
                     ".catalog";
    timed("engine.catalog.save",
          [&] { RequireOk(catalog.SaveToFile(r.catalog_path), "SaveToFile"); });
    std::unique_ptr<SynopsisCatalog> loaded;
    timed("engine.catalog.load", [&] {
      loaded = std::make_unique<SynopsisCatalog>(
          Take(SynopsisCatalog::LoadFromFile(r.catalog_path), "LoadFromFile"));
    });
    std::vector<std::shared_ptr<const FlatSynopsis>> views;
    timed("qpath.compile", [&] {
      for (const Entry& e : entries_) {
        views.push_back(Take(loaded->FlatView(e.key), "FlatView " + e.key));
      }
    });
    if (extra_layers) {
      std::string bytes;
      timed("core.fs.read", [&] {
        bytes = Take(rangesyn::ReadFileToString(r.catalog_path), "read");
      }, false);
      const int32_t span = tracer_->Begin("core.crc32c", pass_span);
      volatile uint32_t crc = rangesyn::Crc32c(bytes);
      (void)crc;
      tracer_->End(span, static_cast<int64_t>(bytes.size()));
    }
    const rangesyn::obs::RegistrySnapshot after =
        rangesyn::obs::Registry::Get().Snapshot();
    r.tasks = after.CounterValue("threadpool.tasks") -
              before.CounterValue("threadpool.tasks");
    r.steals = after.CounterValue("threadpool.steals") -
               before.CounterValue("threadpool.steals");
    double ref_sum = 0;
    for (int64_t s : ref.samples()) ref_sum += static_cast<double>(s);
    r.raw_ref_ns = ref_sum / static_cast<double>(ref.samples().size());
    tracer_->End(pass_span);

    VerifyRefresh(pass_index, catalog, *loaded, views, &r);
    return r;
  }

  /// Full accuracy checks, once per run: OPT-A's DP-reported SSE against
  /// the harness's own all-ranges SSE, SSE monotone in the budget, every
  /// range-optimal synopsis no worse than one bucket.
  BuildAccuracy CheckAccuracy(const PassResult& r,
                              const std::string& catalog_path) {
    BuildAccuracy acc;
    const ExactSums paper(inputs_.paper);
    auto legacy_sse = [&](const rangesyn::RangeEstimator& est, double* one) {
      double sse = 0;
      *one = 0;
      for (int64_t a = 1; a <= paper.n(); ++a) {
        for (int64_t b = a; b <= paper.n(); ++b) {
          const double truth = static_cast<double>(paper.Sum(a, b));
          const double d = est.EstimateRange(a, b) - truth;
          const double d1 = paper.OneBucket(a, b) - truth;
          sse += d * d;
          *one += d1 * d1;
        }
      }
      return sse;
    };
    double one = 0;
    double sse_b4 = legacy_sse(*opta_b4_, &one);
    const double sse_b6 = legacy_sse(*opta_b6_, &one);
    const double sse_rounded = legacy_sse(*rounded_, &one);
    if (opt_.inject == "drifted-sse") sse_b4 *= 1.0 + 1e-6;
    auto close = [](double x, double y) {
      return std::fabs(x - y) <= 1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
    };
    Require(close(sse_b4, r.opta_sse_b4),
            "OPT-A B=4: harness SSE differs from the DP-reported optimal_sse");
    Require(close(sse_b6, r.opta_sse_b6),
            "OPT-A B=6: harness SSE differs from the DP-reported optimal_sse");
    Require(sse_b6 <= sse_b4 * (1 + 1e-12), "OPT-A SSE rose with budget");
    Require(sse_b6 <= one, "OPT-A does worse than the one-bucket estimate");
    acc.ratio_by_method["opta"].push_back(std::sqrt(sse_b4 / one));
    acc.ratio_by_method["opta"].push_back(std::sqrt(sse_b6 / one));
    acc.ratio_by_method["opta-rounded"].push_back(std::sqrt(sse_rounded / one));

    SynopsisCatalog views =
        Take(SynopsisCatalog::LoadFromFile(catalog_path), "LoadFromFile");
    std::map<std::string, double> sse;
    for (const Entry& e : entries_) {
      const ExactSums& exact = exact_.at(e.key);
      const auto view = Take(views.FlatView(e.key), "FlatView");
      double s = 0, s1 = 0;
      if (exact.n() <= 4096) {
        RangeErrors(*view, exact, AllRanges(exact.n()), &s, &s1);
      } else {
        PrefixDomainSse(*view, exact, &s, &s1);
      }
      sse[e.key] = s;
      if (RangeOptimal(e.spec.method)) {
        Require(s <= s1, e.key + " does worse than the one-bucket estimate");
      }
      acc.ratio_by_method[e.spec.method].push_back(std::sqrt(s / s1));
    }
    for (const auto& [small, large] : kMonotonePairs) {
      Require(sse.at(large) <= sse.at(small) * (1 + 1e-12),
              "SSE rose with budget: " + small + " -> " + large);
    }
    std::vector<double> all;
    for (const auto& [method, ratios] : acc.ratio_by_method) {
      all.insert(all.end(), ratios.begin(), ratios.end());
    }
    acc.geo_mean = GeoMean(all);
    return acc;
  }

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  /// All-ranges SSE in O(n) for an additive estimator (answers
  /// est(a,b) = E(b) - E(a-1), as prefix-domain wavelets and the one-bucket
  /// estimate are): with D(t) = E(t) - P(t), the SSE over all ranges is
  /// (n+1) * sum D^2 - (sum D)^2. E(t) is read back as est(1, t).
  static void PrefixDomainSse(const FlatSynopsis& view, const ExactSums& exact,
                              double* sse, double* sse_one_bucket) {
    const int64_t n = exact.n();
    long double sd = 0, sd2 = 0, so = 0, so2 = 0;
    for (int64_t t = 1; t <= n; ++t) {
      const long double p = static_cast<long double>(exact.Sum(1, t));
      const long double d = view.EstimateOne(1, t) - p;
      const long double o = exact.OneBucket(1, t) - p;
      sd += d;
      sd2 += d * d;
      so += o;
      so2 += o * o;
    }
    const long double m = static_cast<long double>(n + 1);
    *sse = static_cast<double>(m * sd2 - sd * sd);
    *sse_one_bucket = static_cast<double>(m * so2 - so * so);
  }

  /// Answers a seeded sample of ranges on each refreshed view in 256-range
  /// batches (timed), each answer checked bit-identical to the loaded
  /// catalog's own estimator. Then one round-trip operation per entry
  /// compares the freshly built estimator (`built`) with the refreshed view
  /// on a fixed grid of ranges; a mismatch counts that operation as failed.
  void VerifyRefresh(int pass_index, const SynopsisCatalog& built,
                     const SynopsisCatalog& loaded,
                     const std::vector<std::shared_ptr<const FlatSynopsis>>& views,
                     PassResult* r) {
    rangesyn::Rng rng(opt_.seed * 1000003 + static_cast<uint64_t>(pass_index));
    const double scale = (kRefNominalMs * 1e6) / r->raw_ref_ns;
    r->batch_ns.resize(entries_.size());
    std::vector<FlatQuery> batch(256);
    std::vector<double> out(256);
    FlatSynopsis::BatchScratch scratch;
    for (size_t i = 0; i < entries_.size(); ++i) {
      const std::string& key = entries_[i].key;
      const int64_t n = exact_.at(key).n();
      // One untimed batch first: the builds just evicted the view's lines.
      for (FlatQuery& q : batch) q = RandomRange(&rng, n);
      RequireOk(views[i]->EstimateMany(batch, out, &scratch), "EstimateMany");
      for (int rep = 0; rep < kVerifyBatches; ++rep) {
        for (FlatQuery& q : batch) q = RandomRange(&rng, n);
        const int32_t span = tracer_->Begin("qpath.estimate");
        const int64_t t0 = NowNs();
        RequireOk(views[i]->EstimateMany(batch, out, &scratch), "EstimateMany");
        const int64_t raw = NowNs() - t0;
        tracer_->End(span, 256);
        r->batch_ns[i].push_back(static_cast<double>(raw) * scale);
        ++r->ops;
        for (size_t j = 0; j < batch.size(); ++j) {
          const double legacy = Take(
              loaded.EstimateCountBetween(key, batch[j].a, batch[j].b),
              "EstimateCountBetween");
          if (std::memcmp(&legacy, &out[j], sizeof(double)) != 0) {
            Fail("refreshed flat view of " + key +
                 " differs from the loaded estimator");
          }
        }
      }
    }

    for (size_t i = 0; i < entries_.size(); ++i) {
      const std::string& key = entries_[i].key;
      const int64_t n = exact_.at(key).n();
      const int64_t step_a = std::max<int64_t>(1, n / 146);
      const int64_t step_b = std::max<int64_t>(1, n / 205);
      bool same = true;
      for (int64_t a = 1; a <= n && same; a += step_a) {
        for (int64_t b = a; b <= n; b += step_b) {
          const double fresh =
              Take(built.EstimateCountBetween(key, a, b), "EstimateCountBetween");
          const double refreshed = views[i]->EstimateOne(a, b);
          if (std::memcmp(&fresh, &refreshed, sizeof(double)) != 0) {
            same = false;
            break;
          }
        }
      }
      ++r->ops;
      if (!same) {
        ++r->failed;
        r->round_trip_differs.push_back(key);
      }
    }
  }

  const Options& opt_;
  Tracer* tracer_;
  BuildInputs inputs_;
  std::vector<Entry> entries_;
  std::map<std::string, ExactSums> exact_;
  std::unique_ptr<rangesyn::AvgHistogram> opta_b4_, opta_b6_, rounded_;
};

/// Construction-layer metrics of a list of passes (median per pass).
double LayerMedian(const std::vector<PassResult>& passes,
                   const std::string& layer) {
  std::vector<double> v;
  for (const PassResult& p : passes) {
    const auto it = p.layer_ns.find(layer);
    v.push_back(it == p.layer_ns.end() ? 0.0 : it->second / 1e9);
  }
  return Median(v);
}

void ReportBuildLayers(const std::vector<PassResult>& passes,
                       const BuildAccuracy& acc, Report* rep) {
  auto median_of = [&](const std::string& layer) {
    return LayerMedian(passes, layer);
  };
  std::vector<double> states, tasks, steals;
  for (const PassResult& p : passes) {
    states.push_back(static_cast<double>(p.opta_states));
    tasks.push_back(static_cast<double>(p.tasks));
    steals.push_back(static_cast<double>(p.steals));
  }
  rep->Layer("histogram.opt_a_s", median_of("histogram.opt_a"), "s");
  rep->Layer("histogram.opt_a.states_explored", Median(states), "count");
  rep->Layer("histogram.sap0_s", median_of("histogram.sap0"), "s");
  rep->Layer("histogram.sap1_s", median_of("histogram.sap1"), "s");
  rep->Layer("histogram.a0_s", median_of("histogram.a0"), "s");
  rep->Layer("histogram.prefix_stats_s", median_of("histogram.prefix_stats"),
             "s");
  rep->Layer("histogram.interval_dp_s", median_of("histogram.interval_dp"),
             "s");
  rep->Layer("wavelet.range_opt_s", median_of("wavelet.range_opt"), "s");
  rep->Layer("engine.serialize_s", median_of("engine.serialize"), "s");
  rep->Layer("engine.catalog.save_s", median_of("engine.catalog.save"), "s");
  rep->Layer("core.threadpool.tasks", Median(tasks), "count");
  rep->Layer("core.threadpool.steals", Median(steals), "count");
  for (const char* method :
       {"opta", "opta-rounded", "sap0", "sap1", "a0", "wave-range-opt"}) {
    rep->Layer(std::string("accuracy.") + method + ".rmse_ratio",
               GeoMean(acc.ratio_by_method.at(method)), "ratio");
  }
}

// ---------------------------------------------------------------------------
// Serving.

/// One precomputed request and its expected answers.
struct Request {
  size_t entry = 0;
  std::vector<FlatQuery> ranges;
  std::vector<double> expected;
};

/// The host reference that corrects a serving workload's timings: the one
/// that tracks what dominates its requests.
enum class HostReference {
  kEcho,  // loopback echo round trip: kernel wakeups and socket calls
  kCpu,   // the reference loop: CRC, parse, encode and evaluation
};

struct ServeShape {
  int ranges_per_request = 1;
  int pool_size = 4096;
  HostReference reference = HostReference::kEcho;
  /// Catalog builds timed for build_s (median): the one that makes the
  /// served catalog, then extra ones spread over the measured window.
  int build_reps = 1;
  /// Daemon cold starts timed for setup_s (median): the run's own daemon,
  /// then extra ones spread over the measured window.
  int cold_starts = 1;
};

// Serving runs in slices of this length, each followed by a reference
// measurement while the client is idle.
constexpr double kSliceSeconds = 0.2;

// Nominal loopback echo round trip, microseconds, and how long one echo
// reference measurement runs.
constexpr double kEchoNominalUs = 20.0;
constexpr int64_t kEchoProbeNs = 50'000'000;

class ServeRunner {
 public:
  ServeRunner(const Options& opt, std::vector<Entry> entries, ServeShape shape,
              Tracer* tracer, Report* rep)
      : opt_(opt), entries_(std::move(entries)), shape_(shape),
        tracer_(tracer), rep_(rep) {}

  /// Builds the workload's catalog (timed: build_s), saves it, and serves
  /// it for the run's window.
  void Run() {
    const std::string path = opt_.workdir + "/serve.catalog";
    {
      SynopsisCatalog catalog;
      TimedBuild(&catalog);
      RequireOk(catalog.SaveToFile(path), "SaveToFile");
    }
    Serve(path, opt_.seconds);
    rep_->E2e("build_s", Median(build_s_), "s");
  }

  /// Cold-starts a daemon on the catalog file at `path`, runs the closed
  /// loop over one connection for `seconds` after a warm-up, drains the
  /// daemon and reports.
  void Serve(const std::string& path, double seconds) {
    // The harness's own cold load of the same file gives the in-process
    // oracle views (and the read/load/compile layer times).
    const int64_t t_read = NowNs();
    const std::string bytes = Take(rangesyn::ReadFileToString(path), "read");
    const int64_t t_crc = NowNs();
    volatile uint32_t crc = rangesyn::Crc32c(bytes);
    (void)crc;
    const int64_t t_load = NowNs();
    SynopsisCatalog loaded =
        Take(SynopsisCatalog::LoadFromFile(path), "LoadFromFile");
    const int64_t t_compile = NowNs();
    for (const Entry& e : entries_) {
      views_.push_back(Take(loaded.FlatView(e.key), "FlatView " + e.key));
    }
    const int64_t t_done = NowNs();
    tracer_->Add("core.fs.read", t_read, t_crc);
    tracer_->Add("core.crc32c", t_crc, t_load, -1, -1,
                 static_cast<int64_t>(bytes.size()));
    tracer_->Add("engine.catalog.load", t_load, t_compile);
    tracer_->Add("qpath.compile", t_compile, t_done);

    const double rmse_ratio = Accuracy();
    MakePool();
    EchoReference echo;

    // Daemon: cold start from spawn to the first correct reply.
    std::vector<std::string> args = DaemonArgs(path);
    if (opt_.inject == "dropped-reply") {
      args.push_back("--failpoints=serve.conn.write=once:200");
    }
    Daemon daemon(opt_.cli, args, opt_.workdir + "/serve.port");
    rangesyn::serve::ClientOptions copt;
    copt.port = daemon.port();
    rangesyn::serve::Client client(copt);
    SendOne(client, false);
    std::vector<double> setup_s = {Seconds(NowNs() - daemon.spawn_ns())};

    // Warm-up, then the measured window in whole slices. Each slice's
    // samples are scaled by nominal / (mean of the references on either
    // side). Each metric is taken from the quietest quarter of the slices
    // (kQuietQuantile): bursts from other tenants of the host, which only
    // ever add time, move it only when they cover more than three quarters
    // of the slices. So does a program stall that is bunched in time.
    const int64_t warm_until =
        NowNs() + static_cast<int64_t>(kWarmupSeconds * 1e9);
    while (NowNs() < warm_until) SendOne(client, false);
    const bool echo_ref = shape_.reference == HostReference::kEcho;
    const double nominal = echo_ref ? kEchoNominalUs * 1e3 : kRefNominalMs * 1e6;
    auto reference = [&] {
      if (echo_ref) return Median(echo.RttNs(kEchoProbeNs));
      const int64_t a = RunRefLoop();
      const int64_t b = RunRefLoop();
      ref_samples_.push_back(a);
      ref_samples_.push_back(b);
      return 0.5 * static_cast<double>(a + b);
    };
    const int64_t slice_ns = static_cast<int64_t>(kSliceSeconds * 1e9);
    const int64_t window_ns = static_cast<int64_t>(seconds * 1e9);
    // The extra catalog builds and cold starts run between slices, evenly
    // over the window, so their medians span the host's speed regimes as
    // the slices do.
    auto extra_build = [&] {
      return static_cast<int>(build_s_.size()) < shape_.build_reps;
    };
    auto extra_cold = [&] {
      return static_cast<int>(setup_s.size()) < shape_.cold_starts;
    };
    auto gap_ns = [&](int remaining) {
      return window_ns / std::max(1, remaining);
    };
    const int64_t build_gap_ns =
        gap_ns(shape_.build_reps - static_cast<int>(build_s_.size()));
    const int64_t cold_gap_ns =
        gap_ns(shape_.cold_starts - static_cast<int>(setup_s.size()));
    std::vector<double> rate, p50, p90, p99;
    double ref_before = reference();
    const int64_t window_start = NowNs();
    const int64_t until = window_start + window_ns;
    int64_t next_build = window_start + build_gap_ns / 2;
    int64_t next_cold = window_start + cold_gap_ns / 2;
    std::vector<double> slice;
    while (NowNs() + slice_ns <= until) {
      bool between = false;
      if (extra_build() && NowNs() >= next_build) {
        SynopsisCatalog scratch;
        TimedBuild(&scratch);
        next_build += build_gap_ns;
        between = true;
      }
      if (extra_cold() && NowNs() >= next_cold) {
        setup_s.push_back(ColdStart(path));
        next_cold += cold_gap_ns;
        between = true;
      }
      if (between) ref_before = reference();
      slice.clear();
      const int64_t start = NowNs();
      while (NowNs() < start + slice_ns) {
        slice.push_back(static_cast<double>(SendOne(client, true)));
      }
      const double slice_s = Seconds(NowNs() - start);
      const double ref_after = reference();
      const double scale = nominal / (0.5 * (ref_before + ref_after));
      rate.push_back(static_cast<double>(slice.size()) *
                     shape_.ranges_per_request / (slice_s * scale));
      p50.push_back(Quantile(slice, 0.50) * scale);
      p90.push_back(Quantile(slice, 0.90) * scale);
      p99.push_back(Quantile(slice, 0.99) * scale);
      ref_before = ref_after;
    }
    Require(!rate.empty(), "the window holds no whole slice");

    std::vector<double> ping_ns;
    double echo_ns = 0;
    if (opt_.trace) {
      for (int i = 0; i < 400; ++i) {
        const int64_t t0 = NowNs();
        RequireOk(client.Ping(kDeadlineMs), "Ping");
        const int64_t t1 = NowNs();
        tracer_->Add("serve.client.ping", t0, t1);
        ping_ns.push_back(static_cast<double>(t1 - t0));
      }
      pings_ += 400;
      echo_ns = Median(echo.RttNs(4 * kEchoProbeNs));
    }
    const rangesyn::serve::ClientStats stats = client.stats();
    client.Disconnect();
    DrainSummary summary = daemon.Stop();
    if (opt_.inject == "unbalanced-drain") summary.fields["ok"] -= 1;
    CheckDrain(summary, sent_, ok_, pings_);

    // A short window (self-tests) leaves some.
    while (extra_build()) {
      SynopsisCatalog scratch;
      TimedBuild(&scratch);
    }
    while (extra_cold()) setup_s.push_back(ColdStart(path));
    rep_->attempted = sent_ + cold_sent_;
    rep_->E2e("ranges_per_s", Quantile(rate, 1 - kQuietQuantile), "1/s");
    rep_->E2e("latency_p50_us", Quantile(p50, kQuietQuantile) / 1e3, "us");
    rep_->E2e("latency_p90_us", Quantile(p90, kQuietQuantile) / 1e3, "us");
    rep_->E2e("latency_p99_us", Quantile(p99, kQuietQuantile) / 1e3, "us");
    std::cerr << "perfbench: " << rate.size() << " slices, " << sent_
              << " requests\n";
    rep_->E2e("setup_s", Median(setup_s), "s");
    rep_->E2e("range_rmse_ratio", rmse_ratio, "ratio");
    if (opt_.trace) {
      ServeLayers(ping_ns, echo_ns, stats, summary, daemon.listen_s());
    }
  }

 private:
  /// Geometric mean over the lossy entries of RMSE / one-bucket RMSE:
  /// all ranges for n <= 4096, else a fixed sample of 16384 ranges.
  double Accuracy() {
    std::vector<double> ratios;
    rangesyn::Rng rng(7777);
    for (size_t i = 0; i < entries_.size(); ++i) {
      const ExactSums exact(entries_[i].counts);
      if (entries_[i].lossless) continue;
      std::vector<FlatQuery> ranges;
      if (exact.n() <= 4096) {
        ranges = AllRanges(exact.n());
      } else {
        for (int j = 0; j < 16384; ++j) {
          ranges.push_back(RandomRange(&rng, exact.n()));
        }
      }
      double sse = 0, sse1 = 0;
      RangeErrors(*views_[i], exact, ranges, &sse, &sse1);
      Require(sse > 0, entries_[i].key + " answers every sampled range exactly");
      ratios.push_back(std::sqrt(sse / sse1));
    }
    return GeoMean(ratios);
  }

  /// The request pool from --seed: keys uniform over the catalog, ranges
  /// uniform over each key's domain. Expected answers come from the
  /// in-process flat views; for lossless entries they must also equal the
  /// exact integer range sums.
  void MakePool() {
    rangesyn::Rng rng(opt_.seed);
    std::vector<ExactSums> exact;
    for (const Entry& e : entries_) exact.emplace_back(e.counts);
    for (int i = 0; i < shape_.pool_size; ++i) {
      Request r;
      r.entry = static_cast<size_t>(rng.NextBounded(entries_.size()));
      const int64_t n = exact[r.entry].n();
      for (int j = 0; j < shape_.ranges_per_request; ++j) {
        r.ranges.push_back(RandomRange(&rng, n));
      }
      r.expected.resize(r.ranges.size());
      RequireOk(views_[r.entry]->EstimateMany(r.ranges, r.expected),
                "EstimateMany");
      if (entries_[r.entry].lossless) {
        for (size_t j = 0; j < r.ranges.size(); ++j) {
          Require(r.expected[j] == static_cast<double>(exact[r.entry].Sum(
                                       r.ranges[j].a, r.ranges[j].b)),
                  "lossless entry differs from the exact range sum");
        }
      }
      pool_.push_back(std::move(r));
    }
  }

  /// Sends the next request of the pool, checks the reply bit-identical to
  /// the expected answers, and returns the round-trip time in ns. With
  /// `traced` in a traced run, the request's layers get spans too.
  int64_t SendOne(rangesyn::serve::Client& client, bool traced) {
    const Request& req = pool_[next_];
    next_ = (next_ + 1) % pool_.size();
    const int64_t request_id = static_cast<int64_t>(sent_);
    const int32_t span = tracer_->Begin("serve.request", -1, request_id);
    const int64_t t0 = NowNs();
    rangesyn::Result<std::vector<double>> got =
        client.Query(entries_[req.entry].key, req.ranges, kDeadlineMs);
    const int64_t t1 = NowNs();
    tracer_->Add("serve.client.query", t0, t1, span, request_id);
    ++sent_;
    const std::vector<double> answers = CheckReply(
        req, std::move(got), opt_.inject == "wrong-answer" && sent_ == 500);
    ++ok_;
    if (traced && tracer_->active()) {
      TraceLayers(req, answers, span, request_id);
    }
    tracer_->End(span);
    return t1 - t0;
  }

  /// Builds the workload's catalog into `catalog`, timed and corrected by
  /// the reference loop (one build_s sample).
  void TimedBuild(SynopsisCatalog* catalog) {
    RefClock ref;
    build_s_.push_back(RegisterAll(entries_, catalog, &ref));
    ref_samples_.insert(ref_samples_.end(), ref.samples().begin(),
                        ref.samples().end());
  }

  /// Fails the run unless `got` holds the request's expected answers,
  /// bit for bit. `corrupt` (self-test only) shifts one answer by an ulp.
  std::vector<double> CheckReply(const Request& req,
                                 rangesyn::Result<std::vector<double>> got,
                                 bool corrupt) {
    const std::string& key = entries_[req.entry].key;
    if (!got.ok()) {
      std::ostringstream os;
      os << "query failed: " << got.status();
      Fail(os.str());
    }
    std::vector<double> answers = std::move(got).value();
    if (corrupt) answers[0] = std::nextafter(answers[0], 1e300);
    Require(answers.size() == req.expected.size() &&
                std::memcmp(answers.data(), req.expected.data(),
                            answers.size() * sizeof(double)) == 0,
            "served answer differs from the in-process FlatSynopsis for " +
                key);
    return answers;
  }

  std::vector<std::string> DaemonArgs(const std::string& path) const {
    return {"--catalog=" + path, "--threads=" + std::to_string(kDaemonThreads),
            "--log-level=warning"};
  }

  /// Cold-starts a second daemon on the catalog file at `path` while the
  /// run's own daemon idles, and returns the seconds from its spawn to its
  /// first correct reply. It answers one request and is drained; its
  /// summary must balance with exactly that request.
  double ColdStart(const std::string& path) {
    Daemon daemon(opt_.cli, DaemonArgs(path), opt_.workdir + "/cold.port");
    rangesyn::serve::ClientOptions copt;
    copt.port = daemon.port();
    rangesyn::serve::Client client(copt);
    const Request& req = pool_[cold_sent_ % pool_.size()];
    rangesyn::Result<std::vector<double>> got =
        client.Query(entries_[req.entry].key, req.ranges, kDeadlineMs);
    const double seconds = Seconds(NowNs() - daemon.spawn_ns());
    ++cold_sent_;
    CheckReply(req, std::move(got), false);
    client.Disconnect();
    CheckDrain(daemon.Stop(), 1, 1, 0);
    return seconds;
  }

  /// Traced only: re-runs the client-side and evaluation work of the same
  /// request through the library, one span per layer.
  void TraceLayers(const Request& req, const std::vector<double>& answers,
                   int32_t parent, int64_t request_id) {
    namespace sv = rangesyn::serve;
    sv::QueryRequest q;
    q.request_id = static_cast<uint64_t>(request_id);
    q.deadline_ms = kDeadlineMs;
    q.key = entries_[req.entry].key;
    q.ranges = req.ranges;
    int64_t t = NowNs();
    const std::string frame = sv::EncodeQuery(q);
    int64_t u = NowNs();
    tracer_->Add("serve.protocol.encode_query", t, u, parent, request_id);

    std::vector<double> out(req.ranges.size());
    t = NowNs();
    RequireOk(views_[req.entry]->EstimateMany(req.ranges, out), "EstimateMany");
    u = NowNs();
    tracer_->Add("qpath.estimate", t, u, parent, request_id,
                 static_cast<int64_t>(out.size()));

    sv::QueryResponse resp;
    resp.request_id = q.request_id;
    resp.estimates = answers;
    const std::string reply = sv::EncodeQueryOk(resp);
    t = NowNs();
    const sv::FrameHeader header = Take(
        sv::DecodeFrameHeader(
            std::string_view(reply).substr(0, sv::kFrameHeaderBytes)),
        "DecodeFrameHeader");
    const std::string payload = Take(sv::CheckFrameCrc(reply, header), "crc");
    const sv::QueryResponse parsed = Take(sv::ParseQueryOk(payload), "parse");
    u = NowNs();
    tracer_->Add("serve.protocol.decode_reply", t, u, parent, request_id);
    Require(parsed.estimates.size() == answers.size(), "decoded reply size");

    t = NowNs();
    volatile uint32_t crc = rangesyn::Crc32c(frame) ^ rangesyn::Crc32c(reply);
    (void)crc;
    u = NowNs();
    tracer_->Add("core.crc32c", t, u, parent, request_id,
                 static_cast<int64_t>(frame.size() + reply.size()));
  }

  /// The drain summary must balance and agree with the harness's tallies
  /// for that daemon.
  static void CheckDrain(const DrainSummary& s, uint64_t sent, uint64_t ok,
                         uint64_t pings) {
    const uint64_t outcomes = s.Get("ok") + s.Get("shed") +
                              s.Get("malformed") +
                              s.Get("deadline_exceeded") +
                              s.Get("not_found") + s.Get("internal") +
                              s.Get("shutting_down");
    Require(s.Get("requests") == outcomes,
            "daemon drain summary does not balance");
    Require(s.Get("conns_open") == 0, "daemon left connections open");
    Require(s.Get("requests") == sent,
            "daemon counted " + std::to_string(s.Get("requests")) +
                " requests, the harness sent " + std::to_string(sent));
    Require(s.Get("ok") == ok,
            "daemon answered " + std::to_string(s.Get("ok")) +
                " requests ok, the harness received " + std::to_string(ok));
    Require(s.Get("pings") == pings, "daemon ping count differs");
  }

  void ServeLayers(const std::vector<double>& ping_ns, double echo_ns,
                   const rangesyn::serve::ClientStats& stats,
                   const DrainSummary& s, double listen_s) {
    // Daemon overhead per request: round trip minus the in-process eval
    // and the client encode/decode of the same request, paired through
    // their common request span.
    const auto& spans = tracer_->spans();
    std::vector<double> child_ns(spans.size(), 0.0);
    std::vector<double> query_ns(spans.size(), -1.0);
    for (const Span& sp : spans) {
      if (sp.parent < 0 || sp.request < 0) continue;
      const double d = static_cast<double>(sp.end_ns - sp.start_ns);
      if (sp.name == "serve.client.query") {
        query_ns[static_cast<size_t>(sp.parent)] = d;
      } else if (sp.name != "core.crc32c") {
        child_ns[static_cast<size_t>(sp.parent)] += d;
      }
    }
    std::vector<double> over;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (query_ns[i] >= 0 && child_ns[i] > 0) {
        over.push_back(query_ns[i] - child_ns[i]);
      }
    }
    double eval_ranges = 0, eval_ns = 0, crc_bytes = 0, crc_ns = 0;
    tracer_->Totals("qpath.estimate", &eval_ranges, &eval_ns);
    tracer_->Totals("core.crc32c", &crc_bytes, &crc_ns);
    rep_->Layer("serve.client.ping_us", Median(ping_ns) / 1e3, "us");
    rep_->Layer("serve.daemon_overhead_us", Median(over) / 1e3, "us");
    rep_->Layer("core.crc32c.gb_per_s", crc_bytes / crc_ns, "GB/s");
    rep_->Layer("serve.protocol.encode_query_us",
                Median(tracer_->Durations("serve.protocol.encode_query")) / 1e3,
                "us");
    rep_->Layer("serve.protocol.decode_reply_us",
                Median(tracer_->Durations("serve.protocol.decode_reply")) / 1e3,
                "us");
    rep_->Layer("qpath.estimate_ns_per_range", eval_ns / eval_ranges, "ns");
    rep_->Layer("core.fs.read_s",
                Median(tracer_->Durations("core.fs.read")) / 1e9, "s");
    rep_->Layer("engine.catalog.load_s",
                Median(tracer_->Durations("engine.catalog.load")) / 1e9, "s");
    rep_->Layer("qpath.compile_s",
                Median(tracer_->Durations("qpath.compile")) / 1e9, "s");
    rep_->Layer("serve.listen_s", listen_s, "s");
    rep_->Layer("serve.client.retries", static_cast<double>(stats.retries),
                "count");
    rep_->Layer("serve.client.reconnects",
                static_cast<double>(stats.reconnects), "count");
    rep_->Layer("serve.drain.shed", static_cast<double>(s.Get("shed")),
                "count");
    rep_->Layer("serve.drain.deadline_exceeded",
                static_cast<double>(s.Get("deadline_exceeded")), "count");
    rep_->Layer("host.echo_us", echo_ns / 1e3, "us");
    if (!ref_samples_.empty()) {
      std::vector<double> ref_ms;
      for (int64_t v : ref_samples_) {
        ref_ms.push_back(static_cast<double>(v) / 1e6);
      }
      rep_->Layer("host.probe_ms", Median(ref_ms), "ms");
    }
  }

  const Options& opt_;
  std::vector<Entry> entries_;
  ServeShape shape_;
  Tracer* tracer_;
  Report* rep_;
  std::vector<std::shared_ptr<const FlatSynopsis>> views_;
  std::vector<Request> pool_;
  size_t next_ = 0;
  std::vector<int64_t> ref_samples_;
  std::vector<double> build_s_;
  uint64_t sent_ = 0;
  uint64_t ok_ = 0;
  uint64_t pings_ = 0;
  uint64_t cold_sent_ = 0;  // requests to the extra cold-started daemons
};

// ---------------------------------------------------------------------------
// Workload catalogs (fixed recorded seeds; --seed drives the traffic).

std::vector<Entry> ServePointEntries() {
  const std::vector<int64_t> zipf = NamedInput("zipf", 512, std::ldexp(1.0, 30), 512);
  std::vector<Entry> e;
  e.push_back(MakeEntry("point.opta",
                        Take(rangesyn::MakePaperDataset({}), "MakePaperDataset"),
                        "opta", 4));
  e.push_back(MakeEntry("point.sap0", zipf, "sap0", 16));
  e.push_back(MakeEntry("point.sap1", zipf, "sap1", 12));
  e.push_back(MakeEntry("point.wave", NamedInput("zipf", 4095, 1e9, 4095),
                        "wave-range-opt", 32));
  e.push_back(LosslessEntry("point.exact", NamedInput("uniform", 32, 1e6, 32)));
  return e;
}

std::vector<Entry> ServeBatchEntries() {
  // Families dense over the whole domain: a sparse input (a narrow
  // Gaussian mixture, steps) lets large budgets store it exactly.
  const std::vector<std::string> families = {"zipf", "uniform", "selfsim",
                                             "cusp", "zipf_sorted",
                                             "zipf"};
  const std::vector<std::string> methods = {"equiwidth", "equidepth",
                                            "maxdiff", "wave-point", "topbb",
                                            "wave-range-opt"};
  constexpr int64_t n = 65536;
  std::vector<Entry> e;
  e.push_back(LosslessEntry("batch.exact",
                            NamedInput("zipf", n, std::ldexp(1.0, 32), 100)));
  for (int i = 1; i < 64; ++i) {
    const std::string& family = families[static_cast<size_t>(i) % families.size()];
    const std::string& method = methods[static_cast<size_t>(i) % methods.size()];
    const int64_t words = (i % 2 == 0) ? 49152 : 32768;
    const int64_t units =
        words / Take(rangesyn::WordsPerUnit(method), "WordsPerUnit");
    e.push_back(MakeEntry(
        "batch." + std::to_string(i) + "." + family + "." + method,
        NamedInput(family, n, std::ldexp(1.0, 30 + i % 5),
                   1000 + static_cast<uint64_t>(i)),
        method, units));
  }
  return e;
}

// ---------------------------------------------------------------------------
// Workloads.

void RunServe(const Options& opt, Tracer* tracer, Report* rep) {
  const bool point = opt.workload == "serve-point";
  ServeShape shape;
  shape.ranges_per_request = point ? 1 : 256;
  shape.pool_size = point ? 16384 : 1024;
  shape.reference = point ? HostReference::kEcho : HostReference::kCpu;
  shape.build_reps = point ? 32 : 5;
  shape.cold_starts = point ? 31 : 1;
  ServeRunner runner(opt, point ? ServePointEntries() : ServeBatchEntries(),
                     shape, tracer, rep);
  runner.Run();
  if (opt.trace) {
    // Construction layers: one build pass with its accuracy checks.
    BuildRunner build(opt, tracer);
    const PassResult pass = build.RunPass(0, /*extra_layers=*/true);
    ReportBuildLayers({pass}, build.CheckAccuracy(pass, pass.catalog_path),
                      rep);
  }
}

void RunBuild(const Options& opt, int64_t start_ns, Tracer* tracer,
              Report* rep) {
  BuildRunner build(opt, tracer);
  // The first pass is the cold set-up: process start to a refreshed,
  // loaded and compiled catalog.
  PassResult first = build.RunPass(0, opt.trace);
  const double setup_s = Seconds(NowNs() - start_ns);
  const BuildAccuracy acc = build.CheckAccuracy(first, first.catalog_path);
  uint64_t ops = first.ops;
  uint64_t failed = first.failed;
  if (!first.round_trip_differs.empty()) {
    std::cerr << "perfbench: save/load/compile changes the answers of:";
    for (const std::string& key : first.round_trip_differs) {
      std::cerr << " " << key;
    }
    std::cerr << " (one failed operation per entry and pass)\n";
  }

  std::vector<PassResult> passes;
  const int64_t until = NowNs() + static_cast<int64_t>(opt.seconds * 1e9);
  for (int i = 1; NowNs() < until || passes.size() < 3; ++i) {
    PassResult p = build.RunPass(i, opt.trace);
    Require(p.opta_sse_b4 == first.opta_sse_b4 &&
                p.opta_sse_b6 == first.opta_sse_b6 &&
                p.opta_states == first.opta_states,
            "OPT-A is not deterministic across passes");
    Require(p.round_trip_differs == first.round_trip_differs,
            "refresh round-trip differences vary across passes");
    ops += p.ops;
    failed += p.failed;
    passes.push_back(std::move(p));
  }
  // Query metrics: every batch of the run, and the rate of a typical
  // batch mix (one batch per entry at that entry's median batch time).
  std::vector<double> pass_s, batch_ns, ref_ms;
  std::vector<std::vector<double>> by_entry(passes.front().batch_ns.size());
  for (const PassResult& p : passes) {
    pass_s.push_back(p.corrected_s);
    ref_ms.push_back(p.raw_ref_ns / 1e6);
    for (size_t i = 0; i < p.batch_ns.size(); ++i) {
      batch_ns.insert(batch_ns.end(), p.batch_ns[i].begin(),
                      p.batch_ns[i].end());
      by_entry[i].insert(by_entry[i].end(), p.batch_ns[i].begin(),
                         p.batch_ns[i].end());
    }
  }
  double mix_ns = 0;
  for (const std::vector<double>& v : by_entry) mix_ns += Median(v);
  rep->attempted = ops;
  rep->failed = failed;
  rep->E2e("ranges_per_s",
           256.0 * static_cast<double>(by_entry.size()) / (mix_ns / 1e9),
           "1/s");
  rep->E2e("latency_p50_us", Quantile(batch_ns, 0.50) / 1e3, "us");
  rep->E2e("latency_p90_us", Quantile(batch_ns, 0.90) / 1e3, "us");
  rep->E2e("latency_p99_us", Quantile(batch_ns, 0.99) / 1e3, "us");
  rep->E2e("setup_s", setup_s, "s");
  rep->E2e("build_s", Median(pass_s), "s");
  rep->E2e("range_rmse_ratio", acc.geo_mean, "ratio");
  std::cerr << "perfbench: " << passes.size() << " measured passes\n";

  if (opt.trace) {
    ReportBuildLayers(passes, acc, rep);
    rep->Layer("host.probe_ms", Median(ref_ms), "ms");
    double ranges = 0, ns = 0;
    tracer->Totals("qpath.estimate", &ranges, &ns);
    rep->Layer("qpath.estimate_ns_per_range", ns / ranges, "ns");
    for (const char* layer :
         {"core.fs.read", "engine.catalog.load", "qpath.compile"}) {
      rep->Layer(std::string(layer) + "_s", LayerMedian(passes, layer), "s");
    }
    // Serving layers: a one-second traced probe of a daemon serving the
    // last refreshed catalog with 256-range requests.
    Report probe_rep;
    ServeShape shape;
    shape.ranges_per_request = 256;
    shape.pool_size = 256;
    shape.reference = HostReference::kCpu;
    shape.build_reps = 0;
    ServeRunner probe(opt, build.entries(), shape, tracer, &probe_rep);
    probe.Serve(passes.back().catalog_path, 1.0);
    for (const Metric& m : probe_rep.per_layer) {
      if (m.name.rfind("serve.", 0) == 0 || m.name == "core.crc32c.gb_per_s" ||
          m.name == "host.echo_us") {
        rep->Layer(m.name, m.value, m.unit);
      }
    }
  }
}

// ---------------------------------------------------------------------------

void PrintResult(bool correct, const Report& rep, bool trace) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << std::max<uint64_t>(rep.attempted, 1)
     << ", \"failed\": " << rep.failed << ", \"metrics\": {";
  const std::vector<Metric>& metrics = trace ? rep.per_layer : rep.end_to_end;
  bool first = true;
  for (const Metric& m : metrics) {
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    os << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << v
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const size_t eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = a.substr(2, eq - 2);
    const std::string value = a.substr(eq + 1);
    if (key == "workload") opt->workload = value;
    else if (key == "seed") opt->seed = std::stoull(value);
    else if (key == "seconds") opt->seconds = std::stod(value);
    else if (key == "trace") opt->trace = value == "1";
    else if (key == "workdir") opt->workdir = value;
    else if (key == "inject") opt->inject = value;
    else return false;
  }
  return opt->workload == "serve-point" || opt->workload == "serve-batch" ||
         opt->workload == "build";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const int64_t start_ns = NowNs();
  InstallWatchdog(kWatchdogSeconds);
  Options opt;
  opt.cli = RANGESYN_CLI_PATH;
  if (!ParseArgs(argc, argv, &opt) || opt.workdir.empty() ||
      opt.seconds <= 0) {
    std::cerr << "usage: perfbench_harness --workload=serve-point|serve-batch|"
                 "build --seed=N --seconds=S --trace=0|1 --workdir=DIR\n";
    return 2;
  }
  std::filesystem::create_directories(opt.workdir);
  rangesyn::SetGlobalThreads(kBuildThreads);
  Tracer tracer(opt.trace);
  Report rep;
  bool correct = true;
  try {
    if (opt.workload == "build") {
      RunBuild(opt, start_ns, &tracer, &rep);
    } else {
      RunServe(opt, &tracer, &rep);
    }
  } catch (const CheckFailure& e) {
    std::cerr << "perfbench: CHECK FAILED: " << e.what() << "\n";
    correct = false;
  }
  if (opt.trace && correct) {
    // The end-to-end figures of the traced run, for the tracing overhead.
    std::cerr << "perfbench: traced end-to-end:";
    for (const Metric& m : rep.end_to_end) {
      std::cerr << " " << m.name << "=" << m.value;
    }
    std::cerr << "\n";
    const std::string path = opt.workdir + "/trace-" + opt.workload + ".json";
    tracer.WriteJson(path);
    std::cerr << "perfbench: wrote " << tracer.spans().size() << " spans to "
              << path << "\nperfbench: self time by span (ms):\n";
    for (const auto& [name, ns] : tracer.SelfTimes()) {
      std::cerr << "  " << std::left << std::setw(32) << name << " "
                << ns / 1e6 << "\n";
    }
  }
  PrintResult(correct, rep, opt.trace);
  return correct ? 0 : 1;
}
