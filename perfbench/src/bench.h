// Shared pieces of the PayLess benchmark: the run options, the report every
// workload fills, per-query records, the traced run's layer accumulator and
// the post-window layer probes. Every layer is measured from outside, by
// timing calls into that layer's public functions and by reading the
// program's own spans and counters; nothing here reaches into src/.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "exec/payless.h"
#include "market/data_market.h"
#include "obs/latency.h"
#include "obs/trace.h"
#include "stats.h"

namespace perfbench {

using payless::Row;
using payless::Value;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // JSONL file the traced run writes its spans to
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

/// What one invocation reports: the correctness verdict, the query counts
/// and the metrics, plus free-form notes (gate outcomes, validity checks).
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit, size_t samples) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit), samples});
  }
  void Note(std::string text) { notes.push_back(std::move(text)); }
  /// A failed correctness gate: the run's outputs are not trustworthy.
  void FailGate(const std::string& text) {
    correct = false;
    notes.push_back("GATE FAILED: " + text);
  }
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Process CPU seconds (all threads), at nanosecond resolution.
double CpuSeconds();
/// Peak resident set size of the process so far, in MiB.
double PeakRssMb();

/// Order-insensitive digest of a result's rows: equal for the row multisets
/// exec::SameResult calls equal (doubles compared to 1e-6).
uint64_t ResultDigest(const std::vector<Row>& rows);

/// Traced runs keep the spans of this many queries per thread for the file.
constexpr size_t kKeepSpanLines = 2000;

/// One query as the benchmark issues it.
struct QuerySpec {
  std::string sql;
  std::vector<Value> params;
};

/// One issued query, recorded inside the timed window.
struct QueryRecord {
  uint32_t query = 0;       // index into the workload's query list
  double latency_ms = 0.0;  // due (open loop) or start (closed loop) to end
  double service_ms = 0.0;  // time inside PayLess::QueryWithReport
  double cpu_ms = 0.0;      // process CPU over the query (passes only)
  int64_t transactions = 0;
  uint64_t digest = 0;
  bool ok = false;
};

/// Raw evidence of one timed window.
struct WindowStats {
  std::vector<QueryRecord> records;
  double wall_s = 0.0;  // the window's measured wall time
  double cpu_s = 0.0;   // process CPU over the same window
  double peak_rss_mb = 0.0;  // read right after the window
  /// Closed loops repeat their work: whw_cold and bind_fragmented in passes
  /// over one stream (records of pass p are [p*n, (p+1)*n)), whw_hot in
  /// time slices (slice s ends at slice_end[s], after slice_wall_s[s]).
  size_t pass_length = 0;
  std::vector<size_t> slice_end;
  std::vector<double> slice_wall_s;
  std::vector<double> slice_cpu_s;
};

/// End-to-end figures derived from one window.
struct EndToEnd {
  double qps = 0.0;
  PercentileValue p50_ms;
  PercentileValue p99_ms;
  double cpu_ms_per_query = 0.0;
  double mean_service_ms = 0.0;
  double peak_rss_mb = 0.0;
  size_t samples = 0;  // queries completed in the window
};

/// Percentile of the slices whose figures a sliced window reports.
constexpr double kQuietSlicePercent = 25.0;

/// Derives the end-to-end figures, robust to interference from other load
/// on the machine, which only ever adds time:
///   - passes: each query's latency and CPU are its fastest over the
///     passes, and percentiles, qps and CPU per query are taken over those
///     per-query minima;
///   - slices: qps, percentiles and CPU per query are computed per slice,
///     and the quietest quartile is reported (kQuietSlicePercent);
///   - otherwise (the open loop) over all records of the window.
EndToEnd Summarize(const WindowStats& window);

/// Adds the eight end-to-end metrics. `billed_tx_per_query` is passed in
/// because whw_hot defines it differently (its window is free); ok_rate is
/// derived from report->attempted and report->failed.
void AddEndToEnd(const EndToEnd& e2e, const std::vector<double>& setup_s,
                 double billed_tx_per_query, size_t billed_samples,
                 Report* report);

/// A connector listener's copy of one delivered market call, replayed after
/// the window into the seller simulator and a private store.
struct CapturedCall {
  payless::market::RestCall call;
  std::vector<Row> rows;
  int64_t num_records = 0;
};

class CallCapture {
 public:
  explicit CallCapture(size_t cap) : cap_(cap) {}
  /// Registers the capture on `client`'s connector (setup-time).
  void Attach(payless::exec::PayLess* client);
  std::vector<CapturedCall> Take();

 private:
  size_t cap_;
  std::mutex mutex_;
  std::vector<CapturedCall> calls_;
};

/// Layer names of the self-time breakdown, in output order.
enum Layer : int { kObs = 0, kSql, kCore, kExec, kMarket, kNumLayers };

/// Sums of the traced run's per-query layer evidence: the program's own
/// stage decomposition, planning counters, exec counters and spans, plus the
/// benchmark's wall time around each QueryWithReport. Not thread-safe: each
/// client thread owns one and they are merged at the end.
struct LayerAccumulator {
  int64_t queries = 0;
  double wall_us = 0.0;
  double stage_us[payless::obs::kNumQueryStages] = {};
  double bookkeeping_us = 0.0;
  int64_t plans_optimized = 0;
  double bboxes = 0.0;
  double evaluated_plans = 0.0;
  int64_t cache_hits = 0;
  int64_t cache_lookups = 0;
  int64_t calls = 0;
  int64_t transactions = 0;
  int64_t rows_from_market = 0;
  double self_us[kNumLayers] = {};
  double cached_access_us = 0.0;
  int64_t cached_accesses = 0;
  /// Spans of the first queries, kept in memory and written at the end.
  std::vector<std::string> span_lines;

  void AddQuery(const payless::exec::QueryReport& report, double wall_us,
                uint32_t query, size_t keep_span_lines);
  void Merge(const LayerAccumulator& other);
};

/// Runs one query through PayLess::QueryWithReport and records it; `due` is
/// when it was due (open loop) or its start. The result rows are moved to
/// `rows` unverified, so callers digest them outside the timed path; the
/// record's digest is left for them to fill. Feeds `layers` when traced.
QueryRecord TimedQuery(payless::exec::PayLess* client, const QuerySpec& query,
                       uint32_t index, Clock::time_point due,
                       LayerAccumulator* layers, std::vector<Row>* rows);

/// Timings of the post-window layer probes (microseconds per call).
struct ProbeTimes {
  double parse_us = 0.0;
  double bind_us = 0.0;
  double plan_cache_probe_us = 0.0;
  double optimize_us = 0.0;
  double counterfactual_us = 0.0;
  size_t query_samples = 0;
  double harvest_us = 0.0;
  double seller_execute_us = 0.0;
  size_t call_samples = 0;
  double placement_tick_us = 0.0;  // PlacementPolicy::Tick, when placed
  size_t placement_ticks = 0;
};

/// Times the public layer entry points on the traced client's final state:
/// sql::Parse, sql::Bind, PlanCache::Lookup, Optimizer::Optimize and
/// SavingsAccountant::Price over `queries` (cycled until `budget_s` or
/// `max_query_probes`), then SemanticStore::Store + StatsRegistry::Feedback
/// (into a private store) and DataMarket::Execute over `calls`, and last
/// PlacementPolicy::Tick when the client runs one (it may evict).
ProbeTimes ProbeLayers(payless::exec::PayLess* client,
                       const payless::catalog::Catalog& catalog,
                       const payless::market::DataMarket& market,
                       const std::vector<QuerySpec>& queries,
                       const std::vector<CapturedCall>& calls,
                       double budget_s, size_t max_query_probes);

/// Everything the traced run reports besides the window's end-to-end values.
struct TracedEvidence {
  LayerAccumulator layers;
  ProbeTimes probes;
  int64_t store_probes = 0;  // semantic-store probe deltas over the window
  int64_t store_hits = 0;
  int64_t store_evictions = 0;
  int64_t store_views = 0;  // at the end of the window
  int64_t store_rows = 0;
  int64_t coalescable_tx = 0;
  int64_t placement_evicted_tables = 0;
  double generator_lag_p99_ms = 0.0;
};

/// Adds every per-layer metric. `untraced` and `traced` are the same
/// workload's two windows, run with tracing off and on.
void AddPerLayer(const TracedEvidence& evidence, const EndToEnd& untraced,
                 const EndToEnd& traced, Report* report);

/// Writes the kept span lines as JSONL. Returns false on I/O failure.
bool WriteSpans(const std::string& path, const std::string& workload,
                uint64_t seed, const std::vector<std::string>& lines);

/// Reads the store/market counters the traced run reports as deltas.
struct StoreCounters {
  int64_t probes = 0;
  int64_t hits = 0;
  int64_t evictions = 0;
  int64_t coalescable_tx = 0;
};
StoreCounters ReadStoreCounters(payless::exec::PayLess* client);

/// Adds the growth of the store and coalescing counters since `before`
/// (zeros for a fresh client) to `evidence`, and records the store's size
/// and the placement policy's evictions as they are now.
void AddStoreEvidence(payless::exec::PayLess* client, const StoreCounters& before,
                      TracedEvidence* evidence);

/// Ledger == meter: every billed transaction is attributed exactly once.
void CheckLedger(payless::exec::PayLess* client, const std::string& label,
                 Report* report);

/// The workloads.
void RunWhwCold(const RunOptions& options, Report* report);
void RunWhwHot(const RunOptions& options, Report* report);
void RunBindRtt(const RunOptions& options, Report* report);
void RunBindFragmented(const RunOptions& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
