// Latency observability: per-stage tail decomposition, the coalescing-
// opportunity meter, and the flight recorder's overhead. Not a paper
// figure — this validates the observability PR's acceptance invariants on
// the same simulated-market workload as bench_throughput:
//
//   build/bench/bench_latency [--call_latency_us=2000] [--repeats=4]
//                             [--trials=5] [--max_overhead_pct=5]
//                             [--max_gap_pct=5] [--json=...]
//
// Section 1: per-stage tail decomposition — e2e and per-stage p50/p99
//            (from the registry's HDR histograms) at 1/8/32 client
//            threads; billing identical at every thread count. Self-gate:
//            the wall-stage sums must account for the measured end-to-end
//            latency within --max_gap_pct (the decomposition's honesty
//            check — a stage the decomposition forgot shows up as a gap).
// Section 2: coalescing opportunity — threads race the SAME footprint
//            through one client (plan cache and SQR off, so every thread's
//            point calls hit the market byte-identical and concurrent).
//            Self-gate: the meter must report at least one coalescable
//            transaction (ROADMAP item 1's baseline measurement).
// Section 3: flight-recorder overhead — the Section 1 workload at 8
//            threads with the recorder on vs off. Self-gate: the recorder
//            (a fetch_add plus one pre-rendered JSON string per query) may
//            cost at most --max_overhead_pct of qps.
#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/driver.h"
#include "exec/payless.h"
#include "market/data_market.h"
#include "obs/latency.h"
#include "obs/metrics.h"

namespace payless::bench {
namespace {

using catalog::AttrDomain;
using catalog::ColumnDef;
using catalog::DatasetDef;
using catalog::TableDef;
using exec::PayLess;
using exec::PayLessConfig;
using exec::QueryReport;

constexpr int64_t kNumStations = 128;
constexpr int64_t kNumDates = 30;
constexpr int64_t kStationsPerQuery = 4;

constexpr const char* kBindSql =
    "SELECT Temperature FROM CityMap, Weather "
    "WHERE CityId >= ? AND CityId <= ? AND "
    "CityMap.StationID = Weather.StationID AND "
    "Weather.Country = 'US' AND Date >= 1 AND Date <= 30";

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

int Main(int argc, char** argv) {
  const LoadFlags flags = ParseLoadFlags(argc, argv, /*latency_us=*/2000,
                                         /*repeats=*/4, /*threads=*/8,
                                         /*trials=*/5);
  const int64_t latency_us = flags.call_latency_us;
  const int64_t repeats = flags.repeats;
  const int64_t trials = flags.trials;
  const int64_t max_overhead_pct = FlagOr(argc, argv, "max_overhead_pct", 5);
  const int64_t max_gap_pct = FlagOr(argc, argv, "max_gap_pct", 5);
  const std::string& json_path = flags.json_path;

  catalog::Catalog cat;
  {
    Status st = cat.RegisterDataset(DatasetDef{"WHW", 1.0, 10});
    assert(st.ok());
    (void)st;
  }
  TableDef weather;
  weather.name = "Weather";
  weather.dataset = "WHW";
  weather.columns = {
      ColumnDef::Free("Country", ValueType::kString,
                      AttrDomain::Categorical({"US"})),
      // Bound: every plan goes through the bind-join path and the streams
      // stay disjoint at the call level (see bench_throughput).
      ColumnDef::Bound("StationID", ValueType::kInt64,
                       AttrDomain::Numeric(1, kNumStations)),
      ColumnDef::Free("Date", ValueType::kInt64,
                      AttrDomain::Numeric(1, kNumDates)),
      ColumnDef::Output("Temperature", ValueType::kDouble)};
  weather.cardinality = kNumStations * kNumDates;
  {
    Status st = cat.RegisterTable(weather);
    assert(st.ok());
    (void)st;
  }
  TableDef citymap;
  citymap.name = "CityMap";
  citymap.is_local = true;
  citymap.columns = {
      ColumnDef::Free("CityId", ValueType::kInt64,
                      AttrDomain::Numeric(1, kNumStations)),
      ColumnDef::Free("StationID", ValueType::kInt64,
                      AttrDomain::Numeric(1, kNumStations))};
  citymap.cardinality = kNumStations;
  {
    Status st = cat.RegisterTable(citymap);
    assert(st.ok());
    (void)st;
  }
  market::DataMarket market(&cat);
  {
    std::vector<Row> rows;
    for (int64_t s = 1; s <= kNumStations; ++s) {
      for (int64_t d = 1; d <= kNumDates; ++d) {
        rows.push_back(Row{Value("US"), Value(s), Value(d),
                           Value(static_cast<double>(s * 1000 + d))});
      }
    }
    Status st = market.HostTable("Weather", std::move(rows));
    assert(st.ok());
    (void)st;
  }
  std::vector<Row> city_rows;
  for (int64_t i = 1; i <= kNumStations; ++i) {
    city_rows.push_back(Row{Value(i), Value(i)});
  }

  // Disjoint streams: footprint f covers stations [f*4+1, f*4+4].
  std::vector<std::vector<Value>> footprints;
  for (int64_t f = 0; f < kNumStations / kStationsPerQuery; ++f) {
    const int64_t lo = f * kStationsPerQuery + 1;
    footprints.push_back(
        {Value(lo), Value(lo + kStationsPerQuery - 1)});
  }
  const size_t total_queries =
      footprints.size() * static_cast<size_t>(repeats);

  const auto new_client = [&](bool recorder_on) {
    PayLessConfig config;
    config.max_parallel_calls = 1;
    // Frozen uniform estimates: billing identical at every thread count
    // (see bench_throughput for why learning would break that).
    config.stats_kind = stats::StatsKind::kUniform;
    config.enable_flight_recorder = recorder_on;
    auto client = std::make_unique<PayLess>(&cat, &market, config);
    Status st = client->LoadLocalTable("CityMap", city_rows);
    assert(st.ok());
    (void)st;
    client->connector()->SetSimulatedLatencyMicros(latency_us);
    return client;
  };

  // Runs every stream (repeats per footprint, streams claimed whole) on
  // `threads` workers; returns wall ms and accumulates e2e/stage sums.
  const auto run_streams = [&](PayLess* client, int threads,
                               int64_t* sum_e2e_us, int64_t* sum_stage_us,
                               bool* ok) {
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    std::atomic<int64_t> e2e_total{0};
    std::atomic<int64_t> stage_total{0};
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&] {
        for (size_t f = next.fetch_add(1); f < footprints.size();
             f = next.fetch_add(1)) {
          for (int64_t r = 0; r < repeats; ++r) {
            const Result<QueryReport> report =
                client->QueryWithReport(kBindSql, footprints[f]);
            if (!report.ok() || !report->ok()) {
              failed.store(true);
              return;
            }
            e2e_total.fetch_add(report->latency_us);
            // The WALL stages partition the end-to-end path; the detail
            // stages (admission/rtt/backoff) overlap them and are excluded
            // from the honesty sum.
            int64_t wall = 0;
            for (int s = 0; s < obs::kNumWallStages; ++s) {
              wall += report->stage_micros[s];
            }
            stage_total.fetch_add(wall);
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
    const double wall_ms = MillisSince(start);
    *ok = !failed.load();
    if (sum_e2e_us != nullptr) *sum_e2e_us = e2e_total.load();
    if (sum_stage_us != nullptr) *sum_stage_us = stage_total.load();
    return wall_ms;
  };

  BenchJson json;
  json.Meta("bench", std::string("latency"));
  json.Meta("streams", static_cast<int64_t>(footprints.size()));
  json.Meta("repeats", repeats);
  json.Meta("total_queries", static_cast<int64_t>(total_queries));
  json.Meta("call_latency_us", latency_us);

  // ---- Section 1: per-stage tail decomposition at 1/8/32 threads.
  std::printf("# bench_latency: %zu streams x %lld repeats = %zu queries, "
              "call latency %lld us\n",
              footprints.size(), static_cast<long long>(repeats),
              total_queries, static_cast<long long>(latency_us));
  std::printf("# per-stage decomposition (best of %lld)\n",
              static_cast<long long>(trials));
  std::printf("# threads qps e2e_p50 e2e_p99 fetch_p50 fetch_p99 "
              "plan_p50 plan_p99 eval_p50 eval_p99 gap_pct\n");
  double worst_gap_pct = 0.0;
  int64_t tx_1 = -1;
  for (const int threads : {1, 8, 32}) {
    double best_wall_ms = 0.0;
    int64_t total_tx = -1;
    double gap_pct = 0.0;
    obs::MetricsRegistry* metrics = nullptr;
    std::unique_ptr<PayLess> kept;
    for (int64_t trial = 0; trial < trials; ++trial) {
      auto client = new_client(/*recorder_on=*/true);
      int64_t sum_e2e = 0, sum_stage = 0;
      bool ok = false;
      const double wall_ms =
          run_streams(client.get(), threads, &sum_e2e, &sum_stage, &ok);
      if (!ok) {
        std::fprintf(stderr, "query failed at %d threads\n", threads);
        return 1;
      }
      total_tx = client->meter().total_transactions();
      if (tx_1 < 0) tx_1 = total_tx;
      if (total_tx != tx_1) {
        std::fprintf(stderr,
                     "BILLING DIVERGED: %lld transactions at %d threads vs "
                     "%lld at 1 thread\n",
                     static_cast<long long>(total_tx), threads,
                     static_cast<long long>(tx_1));
        return 1;
      }
      if (trial == 0 || wall_ms < best_wall_ms) {
        best_wall_ms = wall_ms;
        gap_pct = sum_e2e > 0
                      ? 100.0 * std::abs(static_cast<double>(sum_e2e) -
                                         static_cast<double>(sum_stage)) /
                            static_cast<double>(sum_e2e)
                      : 0.0;
        kept = std::move(client);  // its histograms feed the percentiles
        metrics = &kept->observability()->metrics;
      }
    }
    worst_gap_pct = std::max(worst_gap_pct, gap_pct);
    obs::LatencyHistogram* e2e =
        metrics->GetLatencyHistogram("payless_latency_e2e_micros");
    obs::LatencyHistogram* fetch =
        metrics->GetLatencyHistogram("payless_stage_fetch_micros");
    obs::LatencyHistogram* plan =
        metrics->GetLatencyHistogram("payless_stage_parse_plan_micros");
    obs::LatencyHistogram* eval =
        metrics->GetLatencyHistogram("payless_stage_local_eval_micros");
    const double qps =
        1000.0 * static_cast<double>(total_queries) / best_wall_ms;
    std::printf("%d %.1f %lld %lld %lld %lld %lld %lld %lld %lld %.2f\n",
                threads, qps,
                static_cast<long long>(e2e->ValueAtQuantile(0.5)),
                static_cast<long long>(e2e->ValueAtQuantile(0.99)),
                static_cast<long long>(fetch->ValueAtQuantile(0.5)),
                static_cast<long long>(fetch->ValueAtQuantile(0.99)),
                static_cast<long long>(plan->ValueAtQuantile(0.5)),
                static_cast<long long>(plan->ValueAtQuantile(0.99)),
                static_cast<long long>(eval->ValueAtQuantile(0.5)),
                static_cast<long long>(eval->ValueAtQuantile(0.99)),
                gap_pct);
    json.BeginRow("decomposition");
    json.Field("threads", static_cast<int64_t>(threads));
    json.Field("qps", qps);
    json.Field("total_transactions", total_tx);
    json.Field("e2e_p50_us", e2e->ValueAtQuantile(0.5));
    json.Field("e2e_p99_us", e2e->ValueAtQuantile(0.99));
    json.Field("fetch_p50_us", fetch->ValueAtQuantile(0.5));
    json.Field("fetch_p99_us", fetch->ValueAtQuantile(0.99));
    json.Field("plan_p50_us", plan->ValueAtQuantile(0.5));
    json.Field("plan_p99_us", plan->ValueAtQuantile(0.99));
    json.Field("eval_p50_us", eval->ValueAtQuantile(0.5));
    json.Field("eval_p99_us", eval->ValueAtQuantile(0.99));
  }
  json.Meta("stage_sum_gap_pct", worst_gap_pct);

  // ---- Section 2: coalescing opportunity — 8 threads race the SAME
  // footprint; plan cache and SQR off so every thread's point calls reach
  // the market. The calls are byte-identical and (at 5000 us simulated
  // RTT) overlap inside the scheduler's in-flight window.
  constexpr int kRacers = 8;
  int64_t coalescable_calls = 0;
  int64_t coalescable_tx = 0;
  {
    PayLessConfig config;
    config.stats_kind = stats::StatsKind::kUniform;
    config.enable_plan_cache = false;
    config.optimizer.use_sqr = false;
    config.max_parallel_calls = 16;
    auto client = std::make_unique<PayLess>(&cat, &market, config);
    Status st = client->LoadLocalTable("CityMap", city_rows);
    assert(st.ok());
    (void)st;
    client->connector()->SetSimulatedLatencyMicros(
        std::max<int64_t>(latency_us, 5000));
    std::atomic<bool> failed{false};
    std::vector<std::thread> racers;
    racers.reserve(kRacers);
    for (int t = 0; t < kRacers; ++t) {
      racers.emplace_back([&] {
        if (!client->Query(kBindSql, footprints[0]).ok()) failed.store(true);
      });
    }
    for (std::thread& r : racers) r.join();
    if (failed.load()) {
      std::fprintf(stderr, "coalescing-section query failed\n");
      return 1;
    }
    obs::MetricsRegistry& m = client->observability()->metrics;
    coalescable_calls =
        m.GetCounter("payless_coalescable_calls_total")->value();
    coalescable_tx =
        m.GetCounter("payless_coalescable_transactions_total")->value();
    std::printf("\n# coalescing opportunity (%d racers, same footprint)\n"
                "# coalescable_calls coalescable_transactions "
                "billed_transactions\n%lld %lld %lld\n",
                kRacers, static_cast<long long>(coalescable_calls),
                static_cast<long long>(coalescable_tx),
                static_cast<long long>(
                    client->meter().total_transactions()));
    json.Meta("coalescable_calls", coalescable_calls);
    json.Meta("coalescable_transactions", coalescable_tx);
  }

  // ---- Section 3: flight-recorder overhead at 8 threads, on vs off. The
  // two sides alternate within each trial (and which goes first alternates
  // between trials), so a shift in machine load hits both alike; each side
  // keeps its best wall.
  double best_wall_ms[2] = {0.0, 0.0};  // [recorder_on]
  for (int64_t trial = 0; trial < trials; ++trial) {
    for (const bool second : {false, true}) {
      const bool recorder_on = second != (trial % 2 == 1);
      auto client = new_client(recorder_on);
      bool ok = false;
      const double wall_ms =
          run_streams(client.get(), 8, nullptr, nullptr, &ok);
      if (!ok) {
        std::fprintf(stderr, "overhead-section query failed\n");
        return 1;
      }
      if (client->meter().total_transactions() != tx_1) {
        std::fprintf(stderr, "BILLING DIVERGED in overhead section\n");
        return 1;
      }
      double& best = best_wall_ms[recorder_on ? 1 : 0];
      if (trial == 0 || wall_ms < best) best = wall_ms;
    }
  }
  const double qps_off =
      1000.0 * static_cast<double>(total_queries) / best_wall_ms[0];
  const double qps_on =
      1000.0 * static_cast<double>(total_queries) / best_wall_ms[1];
  const double recorder_overhead_pct =
      100.0 * (qps_off - qps_on) / qps_off;
  std::printf("\n# flight-recorder overhead (8 threads, best of %lld)\n"
              "# recorder_off_qps recorder_on_qps overhead_pct (gate %lld)\n"
              "%.1f %.1f %.2f\n",
              static_cast<long long>(trials),
              static_cast<long long>(max_overhead_pct), qps_off, qps_on,
              recorder_overhead_pct);
  json.Meta("recorder_off_qps", qps_off);
  json.Meta("recorder_on_qps", qps_on);
  json.Meta("recorder_overhead_pct", recorder_overhead_pct);
  if (!json.WriteTo(json_path)) return 1;

  // Self-gates: a decomposition that does not add up, a meter that saw no
  // opportunity on an overlap-by-construction workload, or a recorder that
  // costs real throughput each fail the bench.
  if (worst_gap_pct > static_cast<double>(max_gap_pct)) {
    std::fprintf(stderr, "FAIL: stage-sum gap %.2f%% exceeds %lld%%\n",
                 worst_gap_pct, static_cast<long long>(max_gap_pct));
    return 1;
  }
  if (coalescable_tx < 1) {
    std::fprintf(stderr, "FAIL: no coalescable transactions metered\n");
    return 1;
  }
  if (recorder_overhead_pct > static_cast<double>(max_overhead_pct)) {
    std::fprintf(stderr, "FAIL: recorder overhead %.2f%% exceeds %lld%%\n",
                 recorder_overhead_pct,
                 static_cast<long long>(max_overhead_pct));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace payless::bench

int main(int argc, char** argv) { return payless::bench::Main(argc, argv); }
