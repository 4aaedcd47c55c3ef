#include "bench.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <utility>

#include "core/optimizer.h"
#include "core/plan_cache.h"
#include "obs/savings_accountant.h"
#include "semstore/semantic_store.h"
#include "sql/parser.h"
#include "stats/estimator.h"

namespace perfbench {

using payless::exec::PayLess;
using payless::exec::QueryReport;
using payless::obs::SpanRecord;

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t ResultDigest(const std::vector<Row>& rows) {
  uint64_t sum = 0;
  for (const Row& row : rows) {
    uint64_t h = 0x345678;
    for (const Value& v : row) {
      // Doubles are compared to 1e-6, as SameResult's text form does, so
      // that the same average summed in another row order still matches.
      const uint64_t vh =
          v.is_double() ? static_cast<uint64_t>(std::llround(v.AsDouble() * 1e6))
                        : static_cast<uint64_t>(v.Hash());
      h = SplitMix(h ^ vh).Next();
    }
    sum += h;  // addition: order-insensitive, duplicates count
  }
  return sum ^ (static_cast<uint64_t>(rows.size()) * 0x9e3779b97f4a7c15ULL);
}

QueryRecord TimedQuery(PayLess* client, const QuerySpec& query, uint32_t index,
                       Clock::time_point due, LayerAccumulator* layers,
                       std::vector<Row>* rows) {
  QueryRecord rec;
  rec.query = index;
  const auto start = Clock::now();
  auto report = client->QueryWithReport(query.sql, query.params);
  const auto end = Clock::now();
  rec.service_ms = std::chrono::duration<double, std::milli>(end - start).count();
  rec.latency_ms = std::chrono::duration<double, std::milli>(end - due).count();
  if (!report.ok()) return rec;
  rec.transactions = report->transactions_spent;
  rec.ok = report->ok();
  if (layers != nullptr) {
    layers->AddQuery(*report, 1000.0 * rec.service_ms, index, kKeepSpanLines);
  }
  if (rec.ok) *rows = std::move(report->result.mutable_rows());
  return rec;
}

namespace {

EndToEnd SummarizeAll(const std::vector<double>& latency,
                      const std::vector<double>& service, double wall_s) {
  EndToEnd e2e;
  e2e.samples = latency.size();
  e2e.p50_ms = Percentile(latency, 50.0);
  e2e.p99_ms = Percentile(latency, 99.0);
  e2e.mean_service_ms = Mean(service);
  e2e.qps = wall_s > 0.0 ? static_cast<double>(latency.size()) / wall_s : 0.0;
  return e2e;
}

}  // namespace

EndToEnd Summarize(const WindowStats& window) {
  const std::vector<QueryRecord>& records = window.records;
  EndToEnd e2e;
  if (window.pass_length > 0 && records.size() >= window.pass_length) {
    const size_t n = window.pass_length;
    const size_t passes = records.size() / n;
    std::vector<double> per_query;
    double cpu_ms = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double wall = records[i].latency_ms;
      double cpu = records[i].cpu_ms;
      for (size_t p = 1; p < passes; ++p) {
        wall = std::min(wall, records[p * n + i].latency_ms);
        cpu = std::min(cpu, records[p * n + i].cpu_ms);
      }
      per_query.push_back(wall);
      cpu_ms += cpu;
    }
    double total_ms = 0.0;
    for (const double v : per_query) total_ms += v;
    e2e = SummarizeAll(per_query, per_query, total_ms / 1000.0);
    e2e.cpu_ms_per_query = cpu_ms / static_cast<double>(n);
  } else if (!window.slice_end.empty()) {
    std::vector<double> qps, p50, p99, mean, cpu;
    size_t begin = 0;
    size_t beyond = 0;
    for (size_t s = 0; s < window.slice_end.size(); ++s) {
      std::vector<double> latency, service;
      for (size_t i = begin; i < window.slice_end[s]; ++i) {
        latency.push_back(records[i].latency_ms);
        service.push_back(records[i].service_ms);
      }
      const size_t count = window.slice_end[s] - begin;
      begin = window.slice_end[s];
      const EndToEnd slice = SummarizeAll(latency, service, window.slice_wall_s[s]);
      qps.push_back(slice.qps);
      p50.push_back(slice.p50_ms.value);
      p99.push_back(slice.p99_ms.value);
      mean.push_back(slice.mean_service_ms);
      cpu.push_back(1000.0 * window.slice_cpu_s[s] /
                    static_cast<double>(std::max<size_t>(1, count)));
      beyond = beyond == 0 ? slice.p99_ms.beyond : std::min(beyond, slice.p99_ms.beyond);
    }
    // The quartile of slices least disturbed by other load: the 75th
    // percentile of throughput, the 25th of latency and CPU.
    e2e.qps = Percentile(qps, 100.0 - kQuietSlicePercent).value;
    e2e.p50_ms = {Percentile(p50, kQuietSlicePercent).value, records.size(), 0};
    e2e.p99_ms = {Percentile(p99, kQuietSlicePercent).value, records.size(), beyond};
    e2e.mean_service_ms = Percentile(mean, kQuietSlicePercent).value;
    e2e.cpu_ms_per_query = Percentile(cpu, kQuietSlicePercent).value;
  } else {
    std::vector<double> latency, service;
    for (const QueryRecord& r : records) {
      latency.push_back(r.latency_ms);
      service.push_back(r.service_ms);
    }
    e2e = SummarizeAll(latency, service, window.wall_s);
    e2e.cpu_ms_per_query =
        1000.0 * window.cpu_s / static_cast<double>(std::max<size_t>(1, records.size()));
  }
  e2e.samples = records.size();
  e2e.peak_rss_mb = window.peak_rss_mb;
  return e2e;
}

void AddEndToEnd(const EndToEnd& e2e, const std::vector<double>& setup_s,
                 double billed_tx_per_query, size_t billed_samples,
                 Report* report) {
  report->Add("setup_s", Median(setup_s), "s", setup_s.size());
  report->Add("qps", e2e.qps, "1/s", e2e.samples);
  report->Add("latency_p50_ms", e2e.p50_ms.value, "ms", e2e.samples);
  report->Add("latency_p99_ms", e2e.p99_ms.value, "ms", e2e.samples);
  report->Add("billed_tx_per_query", billed_tx_per_query, "tx/query",
              billed_samples);
  report->Add("cpu_ms_per_query", e2e.cpu_ms_per_query, "ms", e2e.samples);
  report->Add("peak_rss_mb", e2e.peak_rss_mb, "MiB", 1);
  const double attempted =
      static_cast<double>(std::max<int64_t>(1, report->attempted));
  report->Add("ok_rate", 1.0 - static_cast<double>(report->failed) / attempted,
              "ratio", static_cast<size_t>(report->attempted));
  report->Note("latency_p99_ms: " + std::to_string(e2e.p99_ms.beyond) +
               " samples beyond it (per pass or slice where the window repeats)");
}

void CallCapture::Attach(PayLess* client) {
  client->connector()->AddListener(
      [this](const payless::market::RestCall& call,
             const payless::market::CallResult& result) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (calls_.size() >= cap_) return;
        calls_.push_back(CapturedCall{call, result.rows, result.num_records});
      });
}

std::vector<CapturedCall> CallCapture::Take() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::move(calls_);
}

namespace {

Layer LayerOf(const std::string& span_name) {
  if (span_name == "parse" || span_name == "bind") return kSql;
  if (span_name == "plan") return kCore;
  if (span_name == "execute" || span_name.rfind("access:", 0) == 0) {
    return kExec;
  }
  if (span_name.rfind("market.", 0) == 0) return kMarket;
  return kObs;  // the query root: admission, accounting, trace bookkeeping
}

bool HasAttr(const SpanRecord& span, const std::string& key,
             const std::string& value) {
  for (const auto& [k, v] : span.attrs) {
    if (k == key && v == value) return true;
  }
  return false;
}

/// Length of the union of [start, end) intervals.
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t cur_start = 0;
  int64_t cur_end = std::numeric_limits<int64_t>::min();
  for (const auto& [s, e] : intervals) {
    if (s > cur_end) {
      if (cur_end > cur_start) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (cur_end > cur_start) total += cur_end - cur_start;
  return total;
}

}  // namespace

void LayerAccumulator::AddQuery(const QueryReport& report, double wall_us,
                                uint32_t query, size_t keep_span_lines) {
  ++queries;
  this->wall_us += wall_us;
  double wall_stages = 0.0;
  for (int i = 0; i < payless::obs::kNumQueryStages; ++i) {
    stage_us[i] += static_cast<double>(report.stage_micros[i]);
    if (i < payless::obs::kNumWallStages) {
      wall_stages += static_cast<double>(report.stage_micros[i]);
    }
  }
  bookkeeping_us += wall_us - wall_stages;
  if (report.counters.plan_cache_hits == 0) {  // this query was optimized
    ++plans_optimized;
    bboxes += static_cast<double>(report.counters.enumerated_bboxes);
    evaluated_plans += static_cast<double>(report.counters.evaluated_plans);
  }
  cache_hits += static_cast<int64_t>(report.counters.plan_cache_hits);
  cache_lookups += static_cast<int64_t>(report.counters.plan_cache_hits +
                                        report.counters.plan_cache_misses);
  calls += report.exec.calls;
  transactions += report.transactions_spent;
  rows_from_market += report.exec.rows_from_market;

  // Self time per span: its duration minus the union of its children's
  // intervals (children of one access run in parallel and may overlap).
  const std::vector<SpanRecord>& spans = report.trace;
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  int64_t root_us = 0;
  for (const SpanRecord& s : spans) {
    if (!s.closed()) continue;
    if (s.parent != 0) {
      children[s.parent].emplace_back(s.start_micros,
                                      s.start_micros + s.duration_micros);
    } else {
      root_us += s.duration_micros;
    }
  }
  for (const SpanRecord& s : spans) {
    if (!s.closed()) continue;
    int64_t covered = 0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>> clipped;
      for (const auto& [cs, ce] : it->second) {
        const int64_t lo = std::max(cs, s.start_micros);
        const int64_t hi = std::min(ce, s.start_micros + s.duration_micros);
        if (hi > lo) clipped.emplace_back(lo, hi);
      }
      covered = UnionLength(std::move(clipped));
    }
    self_us[LayerOf(s.name)] +=
        static_cast<double>(std::max<int64_t>(0, s.duration_micros - covered));
    if (s.name.rfind("access:", 0) == 0 && HasAttr(s, "kind", "cached")) {
      cached_access_us += static_cast<double>(s.duration_micros);
      ++cached_accesses;
    }
  }
  // Time inside QueryWithReport but outside the program's root span.
  self_us[kObs] += std::max(0.0, wall_us - static_cast<double>(root_us));

  if (span_lines.size() < keep_span_lines) {
    char head[160];
    std::snprintf(head, sizeof(head),
                  "{\"query\":%u,\"query_id\":%llu,\"bench_wall_us\":%.3f,"
                  "\"spans\":",
                  query, static_cast<unsigned long long>(report.query_id),
                  wall_us);
    span_lines.push_back(head + payless::obs::SpansToJson(spans) + "}");
  }
}

void LayerAccumulator::Merge(const LayerAccumulator& o) {
  queries += o.queries;
  wall_us += o.wall_us;
  for (int i = 0; i < payless::obs::kNumQueryStages; ++i) {
    stage_us[i] += o.stage_us[i];
  }
  bookkeeping_us += o.bookkeeping_us;
  plans_optimized += o.plans_optimized;
  bboxes += o.bboxes;
  evaluated_plans += o.evaluated_plans;
  cache_hits += o.cache_hits;
  cache_lookups += o.cache_lookups;
  calls += o.calls;
  transactions += o.transactions;
  rows_from_market += o.rows_from_market;
  for (int i = 0; i < kNumLayers; ++i) self_us[i] += o.self_us[i];
  cached_access_us += o.cached_access_us;
  cached_accesses += o.cached_accesses;
  span_lines.insert(span_lines.end(), o.span_lines.begin(), o.span_lines.end());
}

ProbeTimes ProbeLayers(PayLess* client, const payless::catalog::Catalog& catalog,
                       const payless::market::DataMarket& market,
                       const std::vector<QuerySpec>& queries,
                       const std::vector<CapturedCall>& calls, double budget_s,
                       size_t max_query_probes) {
  ProbeTimes out;
  const auto micros = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
  };
  payless::core::OptimizerOptions options = client->config().optimizer;
  options.min_epoch = std::numeric_limits<int64_t>::min();  // weak consistency
  const payless::core::Optimizer optimizer(&catalog, &client->stats(),
                                           &client->store(), options);
  const payless::obs::SavingsAccountant accountant(&catalog, &client->stats(),
                                                   options);
  const auto start = Clock::now();
  for (size_t i = 0; !queries.empty() && i < max_query_probes; ++i) {
    if (i >= queries.size() && SecondsSince(start) > budget_s) break;
    const QuerySpec& q = queries[i % queries.size()];
    const auto t0 = Clock::now();
    auto stmt = payless::sql::Parse(q.sql);
    const auto t1 = Clock::now();
    if (!stmt.ok()) continue;
    auto bound = payless::sql::Bind(*stmt, catalog, q.params);
    const auto t2 = Clock::now();
    if (!bound.ok()) continue;
    const std::string key = payless::core::PlanCache::MakeKey(
        payless::core::NormalizeSqlTemplate(q.sql), q.params,
        client->accuracy().drift_epoch(), options.min_epoch);
    const auto hit = client->plan_cache().Lookup(key);
    const auto t3 = Clock::now();
    const auto optimized = optimizer.Optimize(*bound);
    const auto t4 = Clock::now();
    const auto cf = accountant.Price(*bound);
    const auto t5 = Clock::now();
    (void)hit;
    (void)optimized;
    (void)cf;
    out.parse_us += micros(t0, t1);
    out.bind_us += micros(t1, t2);
    out.plan_cache_probe_us += micros(t2, t3);
    out.optimize_us += micros(t3, t4);
    out.counterfactual_us += micros(t4, t5);
    ++out.query_samples;
  }
  if (out.query_samples > 0) {
    const double n = static_cast<double>(out.query_samples);
    out.parse_us /= n;
    out.bind_us /= n;
    out.plan_cache_probe_us /= n;
    out.optimize_us /= n;
    out.counterfactual_us /= n;
  }

  // Harvest replay: the captured calls, in arrival order, into a private
  // store and statistics registry (the program's own store is left alone).
  payless::semstore::SemanticStore store;
  payless::stats::StatsRegistry stats(client->config().stats_kind);
  for (const std::string& name : catalog.TableNames()) {
    stats.RegisterTable(*catalog.FindTable(name));
  }
  for (const CapturedCall& c : calls) {
    const payless::catalog::TableDef* def = catalog.FindTable(c.call.table);
    if (def == nullptr) continue;
    const payless::Box region = payless::market::CallRegion(*def, c.call);
    std::vector<Row> rows = c.rows;
    const auto t0 = Clock::now();
    store.Store(*def, region, std::move(rows), 0);
    stats.Feedback(c.call.table, region, c.num_records);
    const auto t1 = Clock::now();
    (void)market.Execute(c.call);
    const auto t2 = Clock::now();
    out.harvest_us += micros(t0, t1);
    out.seller_execute_us += micros(t1, t2);
    ++out.call_samples;
  }
  if (out.call_samples > 0) {
    out.harvest_us /= static_cast<double>(out.call_samples);
    out.seller_execute_us /= static_cast<double>(out.call_samples);
  }
  if (client->placement() != nullptr) {
    constexpr int kTicks = 20;
    const auto t0 = Clock::now();
    for (int i = 0; i < kTicks; ++i) client->placement()->Tick();
    out.placement_tick_us = micros(t0, Clock::now()) / kTicks;
    out.placement_ticks = kTicks;
  }
  return out;
}

void AddPerLayer(const TracedEvidence& ev, const EndToEnd& untraced,
                 const EndToEnd& traced, Report* report) {
  const LayerAccumulator& L = ev.layers;
  const size_t nq = static_cast<size_t>(L.queries);
  const double q = static_cast<double>(std::max<int64_t>(1, L.queries));
  const double calls = static_cast<double>(std::max<int64_t>(1, L.calls));
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const ProbeTimes& p = ev.probes;
  const size_t pq = p.query_samples;
  const size_t pc = p.call_samples;
  using payless::obs::QueryStage;

  report->Add("sql.parse_us", p.parse_us, "us", pq);
  report->Add("sql.bind_us", p.bind_us, "us", pq);
  report->Add("core.optimize_us", p.optimize_us, "us", pq);
  report->Add("core.bboxes_per_plan",
              ratio(L.bboxes, static_cast<double>(L.plans_optimized)),
              "boxes", static_cast<size_t>(L.plans_optimized));
  report->Add("core.evaluated_plans_per_plan",
              ratio(L.evaluated_plans, static_cast<double>(L.plans_optimized)),
              "plans", static_cast<size_t>(L.plans_optimized));
  report->Add("core.plan_cache_probe_us", p.plan_cache_probe_us, "us", pq);
  report->Add("core.plan_cache_hit_ratio",
              ratio(static_cast<double>(L.cache_hits),
                    static_cast<double>(L.cache_lookups)),
              "ratio", static_cast<size_t>(L.cache_lookups));
  report->Add("obs.counterfactual_us", p.counterfactual_us, "us", pq);
  report->Add("obs.bookkeeping_us", L.bookkeeping_us / q, "us", nq);
  report->Add("obs.tracing_overhead_pct",
              100.0 * ratio(traced.mean_service_ms - untraced.mean_service_ms,
                            untraced.mean_service_ms),
              "%", std::min(traced.samples, untraced.samples));
  report->Add("semstore.read_us",
              ratio(L.cached_access_us, static_cast<double>(L.cached_accesses)),
              "us", static_cast<size_t>(L.cached_accesses));
  report->Add("semstore.harvest_us", p.harvest_us, "us", pc);
  report->Add("semstore.hit_ratio",
              ratio(static_cast<double>(ev.store_hits),
                    static_cast<double>(ev.store_probes)),
              "ratio", static_cast<size_t>(ev.store_probes));
  report->Add("semstore.views", static_cast<double>(ev.store_views), "count", 1);
  report->Add("semstore.stored_rows", static_cast<double>(ev.store_rows),
              "count", 1);
  report->Add("semstore.evictions", static_cast<double>(ev.store_evictions),
              "count", 1);
  report->Add("market.calls_per_query", static_cast<double>(L.calls) / q,
              "calls", nq);
  report->Add("market.rows_per_tx",
              ratio(static_cast<double>(L.rows_from_market),
                    static_cast<double>(L.transactions)),
              "rows/tx", static_cast<size_t>(L.transactions));
  report->Add("market.seller_execute_us", p.seller_execute_us, "us", pc);
  report->Add("market.rtt_us",
              L.stage_us[payless::obs::kStageMarketRtt] / calls, "us",
              static_cast<size_t>(L.calls));
  report->Add("market.sched_admission_us",
              L.stage_us[payless::obs::kStageAdmissionWait] / calls, "us",
              static_cast<size_t>(L.calls));
  report->Add("market.coalescable_tx_share",
              ratio(static_cast<double>(ev.coalescable_tx),
                    static_cast<double>(L.transactions)),
              "ratio", static_cast<size_t>(L.transactions));
  report->Add("exec.fetch_us", L.stage_us[payless::obs::kStageFetch] / q, "us",
              nq);
  report->Add("exec.merge_us", L.stage_us[payless::obs::kStageMerge] / q, "us",
              nq);
  report->Add("exec.local_eval_us",
              L.stage_us[payless::obs::kStageLocalEval] / q, "us", nq);
  report->Add("federation.placement_tick_us", p.placement_tick_us, "us",
              p.placement_ticks);
  report->Add("federation.evicted_tables",
              static_cast<double>(ev.placement_evicted_tables), "count", 1);
  report->Add("load.generator_lag_p99_ms", ev.generator_lag_p99_ms, "ms", nq);
  static const char* kLayerNames[kNumLayers] = {"obs", "sql", "core", "exec",
                                                "market"};
  for (int i = 0; i < kNumLayers; ++i) {
    report->Add(std::string("self_us.") + kLayerNames[i], L.self_us[i] / q,
                "us", nq);
  }
  report->Add("untraced.qps", untraced.qps, "1/s", untraced.samples);
  report->Add("traced.qps", traced.qps, "1/s", traced.samples);
  report->Add("untraced.latency_p50_ms", untraced.p50_ms.value, "ms",
              untraced.samples);
  report->Add("traced.latency_p50_ms", traced.p50_ms.value, "ms",
              traced.samples);
  report->Add("untraced.latency_p99_ms", untraced.p99_ms.value, "ms",
              untraced.samples);
  report->Add("traced.latency_p99_ms", traced.p99_ms.value, "ms",
              traced.samples);
  report->Add("untraced.cpu_ms_per_query", untraced.cpu_ms_per_query, "ms",
              untraced.samples);
  report->Add("traced.cpu_ms_per_query", traced.cpu_ms_per_query, "ms",
              traced.samples);
  const double attempted =
      static_cast<double>(std::max<int64_t>(1, report->attempted));
  report->Add("error_rate", static_cast<double>(report->failed) / attempted,
              "ratio", static_cast<size_t>(report->attempted));
}

bool WriteSpans(const std::string& path, const std::string& workload,
                uint64_t seed, const std::vector<std::string>& lines) {
  if (path.empty()) return true;
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "{\"workload\":\"%s\",\"seed\":%llu,\"queries\":%zu}\n",
               workload.c_str(), static_cast<unsigned long long>(seed),
               lines.size());
  for (const std::string& line : lines) {
    std::fputs(line.c_str(), file);
    std::fputc('\n', file);
  }
  return std::fclose(file) == 0;
}

StoreCounters ReadStoreCounters(PayLess* client) {
  StoreCounters c;
  c.probes = client->store().TotalProbes();
  c.hits = client->store().TotalHits();
  c.evictions = client->store().TotalEvictions();
  c.coalescable_tx = client->observability()
                         ->metrics.GetCounter(
                             "payless_coalescable_transactions_total")
                         ->value();
  return c;
}

void AddStoreEvidence(PayLess* client, const StoreCounters& before,
                      TracedEvidence* evidence) {
  const StoreCounters after = ReadStoreCounters(client);
  evidence->store_probes += after.probes - before.probes;
  evidence->store_hits += after.hits - before.hits;
  evidence->store_evictions += after.evictions - before.evictions;
  evidence->coalescable_tx += after.coalescable_tx - before.coalescable_tx;
  evidence->store_views = static_cast<int64_t>(client->store().TotalViews());
  evidence->store_rows = static_cast<int64_t>(client->store().TotalStoredRows());
  if (client->placement() != nullptr) {
    evidence->placement_evicted_tables = client->placement()->evicted_tables();
  }
}

void CheckLedger(PayLess* client, const std::string& label, Report* report) {
  const int64_t ledger = client->observability()->ledger.total_transactions();
  const int64_t meter = client->meter().total_transactions();
  if (ledger != meter) {
    report->FailGate(label + ": cost ledger " + std::to_string(ledger) +
                     " tx != billing meter " + std::to_string(meter) + " tx");
  }
}

}  // namespace perfbench
