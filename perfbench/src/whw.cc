// whw_cold and whw_hot: the paper's Fig. 10a real-data stream (WHW + EHR +
// the buyer's ZipMap, templates Q1-Q5) at 10% scale.
//
// whw_cold replays one stream of distinct instances on a fresh client per
// pass (closed loop, one thread, zero call latency), so every query misses
// the plan cache and the bill of a pass is a pure function of the seed.
// whw_hot warms one shared client on a fixed hot set until a whole round is
// free and plan-cached, then lets several client threads replay that set.
//
// Results are verified outside the timed path: whw_cold stops its clocks
// around each query, whw_hot runs in time slices and verifies between them.
#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "exec/reference.h"
#include "workload/bundle.h"
#include "workload/queries.h"
#include "workload/whw.h"

namespace perfbench {
namespace {

using payless::exec::PayLess;
using payless::market::DataMarket;
using payless::workload::QueryInstance;

constexpr double kScale = 0.1;
// One dataset, as the paper has one real WHW/EHR release; the workload seed
// draws the query stream over it.
constexpr uint64_t kDataSeed = 42;
constexpr size_t kStreamQueries = 1000;
// Fixes the stream's arrival structure (the same for every seed).
constexpr uint64_t kCellOrderSeed = 0x5eed;
constexpr int kSetups = 3;
constexpr size_t kHotPerCountry = 8;
constexpr int kMaxWarmupRounds = 8;
constexpr size_t kCaptureCalls = 4000;
constexpr double kHotSliceSeconds = 0.25;
// Client threads of whw_hot: enough to contend on the shared client, few
// enough to leave cores to the placement tick and to other load.
constexpr unsigned kHotThreads = 2;

/// The generated data, hosted without keeping a second copy of the seller
/// rows (the oracle reads them back through the market's test accessor).
struct WhwInputs {
  std::unique_ptr<payless::workload::RealData> data;
  std::unique_ptr<DataMarket> market;
  std::vector<QueryInstance> stream;  // distinct instances, arrival order
};

/// What an instance's cost follows: the length of its date range in days of
/// the queryable window (Q2: of its rank range).
int64_t Extent(const payless::workload::RealData& data, const QueryInstance& q) {
  static const int kRangeStart[5] = {1, 0, 1, 2, 1};  // param index per template
  const int at = kRangeStart[q.template_id];
  const int64_t lo = q.params[at].AsInt64();
  const int64_t hi = q.params[at + 1].AsInt64();
  if (q.template_id == 1) return hi - lo;
  const auto& dates = data.queryable_dates;
  return std::lower_bound(dates.begin(), dates.end(), hi) -
         std::lower_bound(dates.begin(), dates.end(), lo);
}

/// Instances grouped by (template, country); Q2 has no country.
using Cells = std::map<std::pair<size_t, std::string>, std::vector<QueryInstance>>;

Cells GroupCells(const std::vector<QueryInstance>& queries) {
  Cells cells;
  for (const QueryInstance& q : queries) {
    cells[{q.template_id, q.template_id == 1 ? "" : q.params[0].AsString()}]
        .push_back(q);
  }
  return cells;
}

/// `k` of a cell's instances, evenly spaced in extent order.
void TakeEvenly(const payless::workload::RealData& data,
                std::vector<QueryInstance> cell, size_t k,
                std::vector<QueryInstance>* out) {
  std::stable_sort(cell.begin(), cell.end(),
                   [&](const QueryInstance& a, const QueryInstance& b) {
                     return Extent(data, a) < Extent(data, b);
                   });
  const size_t n = cell.size();
  for (size_t i = 0; i < std::min(k, n); ++i) {
    out->push_back(cell[k >= n ? i : (2 * i + 1) * n / (2 * k)]);
  }
}

/// One stream: `queries` distinct instances, a fifth per template, spread
/// evenly over the template's countries and, within a country, over range
/// lengths, drawn from a seeded pool three times larger. Countries differ
/// tenfold in station count and ranges fourfold in length, so an
/// unstratified draw would make the figures a function of the draw rather
/// than of the program.
///
/// The arrival order has one fixed structure: each (template, country)
/// cell visits its range lengths in one fixed order, and its instances are
/// spread evenly over the stream from a fixed phase. What a query costs
/// depends on what the store already holds for its country, so with a
/// seeded order the stream's cost varied by a third from seed to seed, and
/// on about a quarter of the seeds one early United States Q5 took 270 ms
/// and 250 MiB. The seed draws the instances: their date and rank ranges.
std::vector<QueryInstance> DrawStream(const payless::workload::RealData& data,
                                      size_t queries, uint64_t seed) {
  const size_t per_template = queries / 5;
  payless::Rng rng(seed * 7919 + 1);
  std::vector<QueryInstance> pool;
  std::set<std::string> seen;
  for (QueryInstance& q :
       payless::workload::MakeRealQueries(data, 3 * per_template, &rng)) {
    const std::string key =
        std::to_string(q.template_id) + "|" + payless::RowToString(q.params);
    if (seen.insert(key).second) pool.push_back(std::move(q));
  }
  const Cells cells = GroupCells(pool);
  std::map<size_t, size_t> cells_of_template;
  for (const auto& [key, cell] : cells) ++cells_of_template[key.first];
  std::map<size_t, size_t> index_in_template;
  SplitMix phase(kCellOrderSeed + 1);
  std::vector<std::pair<double, QueryInstance>> timed;
  for (const auto& [key, cell] : cells) {
    const size_t n = cells_of_template[key.first];
    const size_t i = index_in_template[key.first]++;
    const size_t quota = per_template / n + (i < per_template % n ? 1 : 0);
    std::vector<QueryInstance> chosen;
    TakeEvenly(data, cell, quota, &chosen);  // in range-length order
    SplitMix fixed(kCellOrderSeed);
    for (size_t j = chosen.size(); j > 1; --j) {
      std::swap(chosen[j - 1], chosen[fixed.Below(j)]);
    }
    const double offset = phase.Unit();
    for (size_t j = 0; j < chosen.size(); ++j) {
      timed.emplace_back((static_cast<double>(j) + offset) /
                             static_cast<double>(chosen.size()),
                         std::move(chosen[j]));
    }
  }
  std::stable_sort(timed.begin(), timed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<QueryInstance> stream;
  for (auto& [t, q] : timed) stream.push_back(std::move(q));
  return stream;
}

WhwInputs MakeInputs(uint64_t seed) {
  payless::workload::RealDataOptions options;
  options.scale = kScale;
  options.seed = kDataSeed;
  WhwInputs in;
  in.data = std::make_unique<payless::workload::RealData>(
      payless::workload::MakeRealData(options));
  in.stream = DrawStream(*in.data, kStreamQueries, seed);
  in.market = std::make_unique<DataMarket>(&in.data->catalog);
  for (auto& [name, rows] : in.data->market_tables) {
    const payless::Status st = in.market->HostTable(name, std::move(rows));
    if (!st.ok()) {
      std::fprintf(stderr, "hosting %s: %s\n", name.c_str(), st.ToString().c_str());
      std::exit(2);
    }
  }
  in.data->market_tables.clear();
  return in;
}

/// `placement`: run the deployed background placement tick. With no
/// capacity budget it ranks the stored tables every tick and never evicts,
/// so the hot window stays free while the placement layer does its work.
std::unique_ptr<PayLess> NewClient(const WhwInputs& in, bool traced,
                                   bool placement = false) {
  payless::exec::PayLessConfig config = payless::workload::PayLessFullConfig();
  config.enable_tracing = traced;
  if (placement) config.placement_tick_interval_micros = 100'000;
  auto client = std::make_unique<PayLess>(&in.data->catalog, in.market.get(), config);
  for (const auto& [name, rows] : in.data->local_tables) {
    const payless::Status st = client->LoadLocalTable(name, rows);
    if (!st.ok()) {
      std::fprintf(stderr, "loading %s: %s\n", name.c_str(), st.ToString().c_str());
      std::exit(2);
    }
  }
  return client;
}

std::vector<QuerySpec> Specs(const std::vector<QueryInstance>& queries) {
  std::vector<QuerySpec> out;
  for (const QueryInstance& q : queries) out.push_back({q.sql, q.params});
  return out;
}

/// Reference results for the real-data templates: exec::ReferenceEvaluate
/// over a market that hosts only the seller rows the query's own
/// conjunctive predicates can select (its Country, its Date range, its Rank
/// range). Rows outside those ranges cannot reach the result, so the answer
/// is the full-table answer, at a fraction of the full-table scan.
class WhwOracle {
 public:
  explicit WhwOracle(const WhwInputs& in)
      : catalog_(in.data->catalog),
        stations_(*in.market->HostedRowsForTesting("Station")),
        pollution_(*in.market->HostedRowsForTesting("Pollution")),
        w_date_(Column("Weather", "Date")),
        s_country_(Column("Station", "Country")),
        p_rank_(Column("Pollution", "Rank")) {
    const size_t w_country = Column("Weather", "Country");
    for (const Row& row : *in.market->HostedRowsForTesting("Weather")) {
      weather_[row[w_country].AsString()].push_back(&row);
    }
    for (auto& [country, rows] : weather_) {
      std::stable_sort(rows.begin(), rows.end(), [this](const Row* a, const Row* b) {
        return (*a)[w_date_].AsInt64() < (*b)[w_date_].AsInt64();
      });
    }
  }

  payless::Result<uint64_t> Digest(const QueryInstance& q,
                                   const payless::storage::Database& local_db) const {
    // Parameter positions per template (see workload::RealTemplates):
    // country, first of the date range, first of the rank range (-1 = none).
    struct Shape {
      int country, date_lo, rank_lo;
      bool station;
    };
    static const Shape kShapes[5] = {{0, 1, -1, false},
                                     {-1, -1, 0, false},
                                     {0, 1, -1, true},
                                     {0, 2, -1, true},
                                     {0, 1, 3, true}};
    if (q.template_id >= 5) return payless::Status::Internal("unknown template");
    const Shape& shape = kShapes[q.template_id];
    const std::vector<Value>& p = q.params;
    DataMarket market(&catalog_);
    if (shape.country >= 0) {
      const std::string& country = p[shape.country].AsString();
      const int64_t lo = p[shape.date_lo].AsInt64();
      const int64_t hi = p[shape.date_lo + 1].AsInt64();
      std::vector<Row> weather;
      const auto it = weather_.find(country);
      if (it != weather_.end()) {
        for (const Row* row : it->second) {
          const int64_t d = (*row)[w_date_].AsInt64();
          if (d > hi) break;
          if (d >= lo) weather.push_back(*row);
        }
      }
      PAYLESS_RETURN_IF_ERROR(market.HostTable("Weather", std::move(weather)));
      if (shape.station) {
        std::vector<Row> stations;
        for (const Row& row : stations_) {
          if (row[s_country_].AsString() == country) stations.push_back(row);
        }
        PAYLESS_RETURN_IF_ERROR(market.HostTable("Station", std::move(stations)));
      }
    }
    if (shape.rank_lo >= 0) {
      const int64_t lo = p[shape.rank_lo].AsInt64();
      const int64_t hi = p[shape.rank_lo + 1].AsInt64();
      std::vector<Row> ranks;
      for (const Row& row : pollution_) {
        const int64_t r = row[p_rank_].AsInt64();
        if (r >= lo && r <= hi) ranks.push_back(row);
      }
      PAYLESS_RETURN_IF_ERROR(market.HostTable("Pollution", std::move(ranks)));
    }
    auto result =
        payless::exec::ReferenceEvaluate(catalog_, market, local_db, q.sql, q.params);
    PAYLESS_RETURN_IF_ERROR(result.status());
    return ResultDigest(result->rows());
  }

  /// Reference digests of `queries`; failures are reported as gate failures.
  std::vector<uint64_t> Digests(const std::vector<QueryInstance>& queries,
                                const payless::storage::Database& local_db,
                                Report* report) const {
    std::vector<uint64_t> out;
    int64_t errors = 0;
    for (const QueryInstance& q : queries) {
      auto digest = Digest(q, local_db);
      if (!digest.ok()) ++errors;
      out.push_back(digest.ok() ? *digest : 0);
    }
    if (errors > 0) {
      report->FailGate("exec::ReferenceEvaluate failed on " +
                       std::to_string(errors) + " queries");
    }
    return out;
  }

 private:
  size_t Column(const std::string& table, const std::string& column) const {
    const auto* def = catalog_.FindTable(table);
    for (size_t i = 0; i < def->columns.size(); ++i) {
      if (def->columns[i].name == column) return i;
    }
    return 0;
  }

  const payless::catalog::Catalog& catalog_;
  const std::vector<Row>& stations_;
  const std::vector<Row>& pollution_;
  size_t w_date_, s_country_, p_rank_;
  std::map<std::string, std::vector<const Row*>> weather_;
};

/// Counts records whose result is missing or differs from the reference.
int64_t CountWrong(const std::vector<QueryRecord>& records,
                   const std::vector<uint64_t>& expected, Report* report) {
  int64_t wrong = 0;
  for (const QueryRecord& r : records) {
    ++report->attempted;
    if (!r.ok || r.digest != expected[r.query]) {
      ++report->failed;
      ++wrong;
    }
  }
  return wrong;
}

// ---------------------------------------------------------------- whw_cold

struct ColdWindow {
  WindowStats window;
  std::vector<std::vector<QueryRecord>> passes;
  TracedEvidence evidence;
};

/// Fresh-client passes over the stream until `seconds` of query time have
/// been measured. Clocks run only inside QueryWithReport (wall) and around
/// it (process CPU), so client construction and verification are excluded.
ColdWindow RunColdWindow(const WhwInputs& in, double seconds, bool traced,
                         Report* report) {
  ColdWindow out;
  const std::vector<QuerySpec> specs = Specs(in.stream);
  std::unique_ptr<PayLess> client;
  CallCapture capture(kCaptureCalls);
  std::vector<Row> rows;
  out.window.pass_length = specs.size();
  while (out.passes.empty() || out.window.wall_s < seconds) {
    client.reset();
    client = NewClient(in, traced);
    if (traced && out.passes.empty()) capture.Attach(client.get());
    std::vector<QueryRecord> pass;
    pass.reserve(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
      const double cpu0 = CpuSeconds();
      QueryRecord rec = TimedQuery(client.get(), specs[i], static_cast<uint32_t>(i),
                                   Clock::now(), traced ? &out.evidence.layers : nullptr,
                                   &rows);
      rec.cpu_ms = 1000.0 * (CpuSeconds() - cpu0);
      out.window.cpu_s += rec.cpu_ms / 1000.0;
      out.window.wall_s += rec.service_ms / 1000.0;
      rec.digest = ResultDigest(rows);
      pass.push_back(rec);
    }
    CheckLedger(client.get(), "whw_cold pass " + std::to_string(out.passes.size()),
                report);
    AddStoreEvidence(client.get(), StoreCounters{}, &out.evidence);
    out.window.records.insert(out.window.records.end(), pass.begin(), pass.end());
    out.passes.push_back(std::move(pass));
  }
  out.window.peak_rss_mb = PeakRssMb();
  if (traced) {
    out.evidence.probes = ProbeLayers(client.get(), in.data->catalog, *in.market,
                                      specs, capture.Take(), 2.0, specs.size());
  }
  return out;
}

/// Bill and result gates of whw_cold: every pass bills exactly what the
/// first did, query by query, and every result matches the reference.
void CheckCold(const ColdWindow& cold, const std::vector<uint64_t>& expected,
               Report* report) {
  const std::vector<QueryRecord>& first = cold.passes.front();
  for (size_t p = 1; p < cold.passes.size(); ++p) {
    for (size_t i = 0; i < first.size(); ++i) {
      if (cold.passes[p][i].transactions != first[i].transactions) {
        report->FailGate("whw_cold pass " + std::to_string(p) + " query " +
                         std::to_string(i) + " billed " +
                         std::to_string(cold.passes[p][i].transactions) +
                         " tx, pass 0 billed " +
                         std::to_string(first[i].transactions) +
                         " (the bill must repeat per seed)");
        break;
      }
    }
  }
  const int64_t wrong = CountWrong(cold.window.records, expected, report);
  if (wrong > 0) {
    report->FailGate(std::to_string(wrong) +
                     " whw_cold results differ from exec::ReferenceEvaluate");
  }
}

int64_t PassTransactions(const std::vector<QueryRecord>& pass) {
  int64_t tx = 0;
  for (const QueryRecord& r : pass) tx += r.transactions;
  return tx;
}

}  // namespace

void RunWhwCold(const RunOptions& options, Report* report) {
  std::vector<double> setup_s;
  WhwInputs in;
  for (int i = 0; i < (options.trace ? 1 : kSetups); ++i) {
    in = WhwInputs{};
    const auto t0 = Clock::now();
    in = MakeInputs(options.seed);
    NewClient(in, false);
    setup_s.push_back(SecondsSince(t0));
  }
  std::vector<uint64_t> expected;
  {
    const auto checker = NewClient(in, false);
    expected = WhwOracle(in).Digests(in.stream, *checker->local_db(), report);
  }
  ColdWindow cold = RunColdWindow(in, options.seconds, false, report);
  CheckCold(cold, expected, report);
  const int64_t pass_tx = PassTransactions(cold.passes.front());
  std::string pass_walls;
  for (const auto& pass : cold.passes) {
    double ms = 0.0;
    for (const QueryRecord& r : pass) ms += r.service_ms;
    pass_walls += " " + std::to_string(ms / 1000.0);
  }
  report->Note("whw_cold: " + std::to_string(cold.passes.size()) + " passes of " +
               std::to_string(in.stream.size()) + " queries, " +
               std::to_string(pass_tx) + " tx per pass, pass seconds" + pass_walls);
  const EndToEnd e2e = Summarize(cold.window);
  if (!options.trace) {
    AddEndToEnd(e2e, setup_s,
                static_cast<double>(pass_tx) / static_cast<double>(in.stream.size()),
                in.stream.size(), report);
    return;
  }
  ColdWindow traced = RunColdWindow(in, options.seconds, true, report);
  CheckCold(traced, expected, report);
  if (PassTransactions(traced.passes.front()) != pass_tx) {
    report->FailGate("whw_cold traced pass billed differently from untraced");
  }
  AddPerLayer(traced.evidence, e2e, Summarize(traced.window), report);
  if (!WriteSpans(options.trace_out, options.workload, options.seed,
                  traced.evidence.layers.span_lines)) {
    report->Note("could not write spans to " + options.trace_out);
  }
}

// ----------------------------------------------------------------- whw_hot

namespace {

/// The hot set, the same shape for every seed: for each of Q1, Q3 and Q4
/// kHotPerCountry instances per country, and as many Q2 instances (which
/// have no country), each spread evenly over range lengths. Countries differ tenfold in station
/// count, so a seed-drawn mix of them would make the figures a function of
/// the draw. Q5, the four-way SELECT * join, returns ten thousand rows and
/// more per instance; in a hot set its result construction would swamp the
/// read path this workload is for (whw_cold runs it).
std::vector<QueryInstance> HotSet(const WhwInputs& in) {
  std::vector<QueryInstance> hot;
  for (const auto& [key, cell] : GroupCells(in.stream)) {
    if (key.first == 1) {
      TakeEvenly(*in.data, cell, kHotPerCountry * in.data->countries.size(), &hot);
    } else if (key.first < 4) {
      TakeEvenly(*in.data, cell, kHotPerCountry, &hot);
    }
  }
  return hot;
}

struct HotClient {
  std::unique_ptr<PayLess> client;
  int64_t warmup_tx = 0;
  int rounds = 0;
  bool settled = false;
};

/// Buys and plan-caches the hot set: rounds of the whole set until one round
/// is free and every query in it hit the plan cache.
HotClient WarmUp(const WhwInputs& in, const std::vector<QueryInstance>& hot,
                 bool traced) {
  HotClient out;
  out.client = NewClient(in, traced, /*placement=*/true);
  while (!out.settled && out.rounds < kMaxWarmupRounds) {
    ++out.rounds;
    int64_t tx = 0;
    bool all_hits = true;
    for (const QueryInstance& q : hot) {
      auto r = out.client->QueryWithReport(q.sql, q.params);
      if (!r.ok()) {
        all_hits = false;
        continue;
      }
      tx += r->transactions_spent;
      all_hits = all_hits && r->counters.plan_cache_hits == 1;
    }
    out.warmup_tx += tx;
    out.settled = tx == 0 && all_hits;
  }
  return out;
}

struct HotWindow {
  WindowStats window;
  TracedEvidence evidence;
  int64_t spent = 0;  // billed inside the window: must be 0
};

/// Closed loop of `threads` client threads over the hot set, in time slices:
/// all threads query until the slice ends (timed), then verify their
/// results (untimed), until `seconds` of timed slices have run.
HotWindow RunHotWindow(PayLess* client, const std::vector<QueryInstance>& hot,
                       double seconds, bool traced) {
  HotWindow out;
  const unsigned threads = std::min(kHotThreads, std::max(1u, std::thread::hardware_concurrency()));
  const std::vector<QuerySpec> specs = Specs(hot);
  std::vector<LayerAccumulator> layers(threads);
  std::vector<size_t> next(threads);
  for (unsigned t = 0; t < threads; ++t) next[t] = t * hot.size() / threads;
  const StoreCounters before = ReadStoreCounters(client);
  const int64_t tx_before = client->meter().total_transactions();
  while (out.window.wall_s < seconds) {
    std::vector<std::vector<QueryRecord>> records(threads);
    std::vector<std::vector<std::vector<Row>>> results(threads);
    const double cpu0 = CpuSeconds();
    const auto t0 = Clock::now();
    const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(kHotSliceSeconds));
    {
      std::vector<std::thread> workers;
      for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
          while (Clock::now() < deadline) {
            const size_t q = next[t]++ % hot.size();
            results[t].emplace_back();
            records[t].push_back(TimedQuery(client, specs[q], static_cast<uint32_t>(q),
                                            Clock::now(), traced ? &layers[t] : nullptr,
                                            &results[t].back()));
          }
        });
      }
      for (std::thread& w : workers) w.join();
    }
    const double slice_wall = SecondsSince(t0);
    out.window.wall_s += slice_wall;
    const double slice_cpu = CpuSeconds() - cpu0;
    out.window.cpu_s += slice_cpu;
    out.window.slice_cpu_s.push_back(slice_cpu);
    {
      std::vector<std::thread> verifiers;
      for (unsigned t = 0; t < threads; ++t) {
        verifiers.emplace_back([&, t] {
          for (size_t i = 0; i < records[t].size(); ++i) {
            records[t][i].digest = ResultDigest(results[t][i]);
          }
        });
      }
      for (std::thread& v : verifiers) v.join();
    }
    for (const auto& r : records) {
      out.window.records.insert(out.window.records.end(), r.begin(), r.end());
    }
    out.window.slice_end.push_back(out.window.records.size());
    out.window.slice_wall_s.push_back(slice_wall);
  }
  out.window.peak_rss_mb = PeakRssMb();
  out.spent = client->meter().total_transactions() - tx_before;
  for (const LayerAccumulator& l : layers) out.evidence.layers.Merge(l);
  AddStoreEvidence(client, before, &out.evidence);
  return out;
}

void CheckHot(const HotWindow& w, const std::vector<uint64_t>& expected,
              PayLess* client, Report* report) {
  const int64_t wrong = CountWrong(w.window.records, expected, report);
  if (wrong > 0) {
    report->FailGate(std::to_string(wrong) +
                     " whw_hot results differ from exec::ReferenceEvaluate");
  }
  if (w.spent != 0) {
    report->FailGate("whw_hot spent " + std::to_string(w.spent) +
                     " tx inside its timed window (must be 0)");
  }
  CheckLedger(client, "whw_hot", report);
}

}  // namespace

void RunWhwHot(const RunOptions& options, Report* report) {
  std::vector<double> setup_s;
  WhwInputs in;
  std::vector<QueryInstance> hot;
  HotClient hc;
  for (int i = 0; i < (options.trace ? 1 : kSetups); ++i) {
    hc = HotClient{};
    in = WhwInputs{};
    const auto t0 = Clock::now();
    in = MakeInputs(options.seed);
    hot = HotSet(in);
    hc = WarmUp(in, hot, false);
    setup_s.push_back(SecondsSince(t0));
  }
  if (!hc.settled) {
    report->FailGate("whw_hot warm-up did not settle in " +
                     std::to_string(kMaxWarmupRounds) + " rounds");
  }
  const std::vector<uint64_t> expected =
      WhwOracle(in).Digests(hot, *hc.client->local_db(), report);
  const HotWindow untraced =
      RunHotWindow(hc.client.get(), hot, options.seconds, false);
  CheckHot(untraced, expected, hc.client.get(), report);
  report->Note("whw_hot: " + std::to_string(hot.size()) + " hot queries, warm-up " +
               std::to_string(hc.rounds) + " rounds, " +
               std::to_string(hc.warmup_tx) + " tx");
  const EndToEnd e2e = Summarize(untraced.window);
  if (!options.trace) {
    // The window is free by construction (gated above); the bill is what
    // buying the hot set cost, per hot query.
    AddEndToEnd(e2e, setup_s,
                static_cast<double>(hc.warmup_tx) / static_cast<double>(hot.size()),
                hot.size(), report);
    return;
  }
  hc = HotClient{};
  HotClient traced_client = WarmUp(in, hot, true);
  HotWindow traced = RunHotWindow(traced_client.client.get(), hot, options.seconds, true);
  CheckHot(traced, expected, traced_client.client.get(), report);
  // The hot window buys nothing, so the harvest and seller replays use the
  // hot set's calls, bought again on a fresh client.
  CallCapture capture(kCaptureCalls);
  {
    auto buyer = NewClient(in, false);
    capture.Attach(buyer.get());
    for (const QueryInstance& q : hot) (void)buyer->QueryWithReport(q.sql, q.params);
  }
  traced.evidence.probes =
      ProbeLayers(traced_client.client.get(), in.data->catalog, *in.market,
                  Specs(hot), capture.Take(), 2.0, 20 * hot.size());
  AddPerLayer(traced.evidence, e2e, Summarize(traced.window), report);
  if (!WriteSpans(options.trace_out, options.workload, options.seed,
                  traced.evidence.layers.span_lines)) {
    report->Note("could not write spans to " + options.trace_out);
  }
}

}  // namespace perfbench
