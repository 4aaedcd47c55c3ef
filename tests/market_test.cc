#include "market/data_market.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/rng.h"
#include "market/rest_call.h"

namespace payless {

// Readable gtest failure output for rows.
void PrintTo(const Value& value, std::ostream* os) { *os << value.ToString(); }

namespace market {
namespace {

using catalog::AttrDomain;
using catalog::BindingKind;
using catalog::ColumnDef;
using catalog::DatasetDef;
using catalog::TableDef;

class MarketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(cat_.RegisterDataset(DatasetDef{"WHW", 1.0, 100}).ok());
    TableDef weather;
    weather.name = "Weather";
    weather.dataset = "WHW";
    weather.columns = {
        ColumnDef::Free("Country", ValueType::kString,
                        AttrDomain::Categorical({"Canada", "US"})),
        ColumnDef::Bound("StationID", ValueType::kInt64,
                         AttrDomain::Numeric(1, 50)),
        ColumnDef::Free("Date", ValueType::kInt64,
                        AttrDomain::Numeric(100, 400)),
        ColumnDef::Output("Temperature", ValueType::kDouble)};
    weather.cardinality = 0;
    ASSERT_TRUE(cat_.RegisterTable(weather).ok());

    TableDef station;
    station.name = "Station";
    station.dataset = "WHW";
    station.columns = {
        ColumnDef::Free("Country", ValueType::kString,
                        AttrDomain::Categorical({"Canada", "US"})),
        ColumnDef::Free("StationID", ValueType::kInt64,
                        AttrDomain::Numeric(1, 50))};
    station.cardinality = 0;
    ASSERT_TRUE(cat_.RegisterTable(station).ok());

    market_ = std::make_unique<DataMarket>(&cat_);
    std::vector<Row> rows;
    for (int64_t station_id = 1; station_id <= 50; ++station_id) {
      for (int64_t date = 100; date <= 400; date += 10) {
        rows.push_back(Row{Value(station_id % 2 == 0 ? "US" : "Canada"),
                           Value(station_id), Value(date), Value(20.5)});
      }
    }
    total_rows_ = static_cast<int64_t>(rows.size());
    ASSERT_TRUE(market_->HostTable("Weather", std::move(rows)).ok());
    std::vector<Row> stations;
    for (int64_t station_id = 1; station_id <= 50; ++station_id) {
      stations.push_back(Row{Value(station_id % 2 == 0 ? "US" : "Canada"),
                             Value(station_id)});
    }
    ASSERT_TRUE(market_->HostTable("Station", std::move(stations)).ok());
  }

  const TableDef& weather() const { return *cat_.FindTable("Weather"); }
  const TableDef& station() const { return *cat_.FindTable("Station"); }

  catalog::Catalog cat_;
  std::unique_ptr<DataMarket> market_;
  int64_t total_rows_ = 0;
};

TEST(TransactionsForTest, Equation1) {
  EXPECT_EQ(TransactionsFor(0, 100), 0);
  EXPECT_EQ(TransactionsFor(1, 100), 1);
  EXPECT_EQ(TransactionsFor(100, 100), 1);
  EXPECT_EQ(TransactionsFor(101, 100), 2);
  EXPECT_EQ(TransactionsFor(4400, 100), 44);  // the paper's WHW example
  EXPECT_EQ(TransactionsFor(23640, 100), 237);  // Fig. 1b call C2
}

TEST(AttrConditionTest, MatchesSemantics) {
  EXPECT_TRUE(AttrCondition::None().Matches(Value("anything")));
  EXPECT_TRUE(AttrCondition::Point(Value("US")).Matches(Value("US")));
  EXPECT_FALSE(AttrCondition::Point(Value("US")).Matches(Value("Canada")));
  EXPECT_FALSE(AttrCondition::Point(Value("US")).Matches(Value::Null()));
  EXPECT_TRUE(AttrCondition::Range(5, 10).Matches(Value(int64_t{5})));
  EXPECT_TRUE(AttrCondition::Range(5, 10).Matches(Value(7.5)));
  EXPECT_FALSE(AttrCondition::Range(5, 10).Matches(Value(int64_t{11})));
  EXPECT_FALSE(AttrCondition::Range(5, 10).Matches(Value("7")));
}

TEST_F(MarketTest, ValidateRejectsMissingBoundAttr) {
  RestCall call = RestCall::Unconstrained(weather());
  EXPECT_EQ(call.Validate(weather()).code(),
            Status::Code::kBindingViolation);
  call.conditions[1] = AttrCondition::Point(Value(int64_t{3}));
  EXPECT_TRUE(call.Validate(weather()).ok());
}

TEST_F(MarketTest, ValidateRejectsConstrainedOutputAttr) {
  RestCall call = RestCall::Unconstrained(weather());
  call.conditions[1] = AttrCondition::Point(Value(int64_t{3}));
  call.conditions[3] = AttrCondition::Range(0, 10);
  EXPECT_EQ(call.Validate(weather()).code(),
            Status::Code::kBindingViolation);
}

TEST_F(MarketTest, ValidateRejectsRangeOnCategorical) {
  RestCall call = RestCall::Unconstrained(weather());
  call.conditions[1] = AttrCondition::Point(Value(int64_t{3}));
  call.conditions[0] = AttrCondition::Range(0, 1);
  EXPECT_EQ(call.Validate(weather()).code(),
            Status::Code::kBindingViolation);
}

TEST_F(MarketTest, ValidateRejectsArityMismatch) {
  RestCall call;
  call.table = "Weather";
  call.conditions.resize(2);
  EXPECT_FALSE(call.Validate(weather()).ok());
}

TEST_F(MarketTest, ValidateRejectsWrongTable) {
  RestCall call = RestCall::Unconstrained(weather());
  EXPECT_FALSE(call.Validate(station()).ok());
}

TEST_F(MarketTest, ExecutePricesByEquation1) {
  RestCall call = RestCall::Unconstrained(station());
  Result<CallResult> result = market_->Execute(call);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_records, 50);
  EXPECT_EQ(result->transactions, 1);
  EXPECT_DOUBLE_EQ(result->price, 1.0);
}

TEST_F(MarketTest, ExecuteFiltersByPointAndRange) {
  RestCall call = RestCall::Unconstrained(weather());
  call.conditions[0] = AttrCondition::Point(Value("US"));
  call.conditions[1] = AttrCondition::Point(Value(int64_t{2}));
  call.conditions[2] = AttrCondition::Range(100, 200);
  Result<CallResult> result = market_->Execute(call);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_records, 11);  // dates 100..200 step 10
  for (const Row& row : result->rows) {
    EXPECT_EQ(row[0], Value("US"));
    EXPECT_EQ(row[1], Value(int64_t{2}));
  }
}

TEST_F(MarketTest, ExecuteEmptyResultIsFree) {
  RestCall call = RestCall::Unconstrained(weather());
  call.conditions[1] = AttrCondition::Point(Value(int64_t{49}));
  call.conditions[0] = AttrCondition::Point(Value("US"));  // 49 is Canada
  Result<CallResult> result = market_->Execute(call);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_records, 0);
  EXPECT_EQ(result->transactions, 0);
}

TEST_F(MarketTest, ExecuteUnknownTableFails) {
  RestCall call;
  call.table = "Nope";
  EXPECT_EQ(market_->Execute(call).status().code(), Status::Code::kNotFound);
}

TEST_F(MarketTest, IndexedExecutionMatchesFullScan) {
  // Property: every call answered via indexes returns exactly the rows a
  // brute-force scan of the hosted data returns.
  Rng rng(99);
  const std::vector<Row>* hosted = market_->HostedRowsForTesting("Weather");
  ASSERT_NE(hosted, nullptr);
  for (int trial = 0; trial < 30; ++trial) {
    RestCall call = RestCall::Unconstrained(weather());
    call.conditions[1] =
        AttrCondition::Point(Value(rng.Uniform(1, 55)));  // may miss
    if (rng.Chance(0.5)) {
      call.conditions[0] =
          AttrCondition::Point(Value(rng.Chance(0.5) ? "US" : "Canada"));
    }
    if (rng.Chance(0.7)) {
      const int64_t lo = rng.Uniform(100, 400);
      call.conditions[2] = AttrCondition::Range(lo, rng.Uniform(lo, 400));
    }
    Result<CallResult> result = market_->Execute(call);
    ASSERT_TRUE(result.ok());
    int64_t expected = 0;
    for (const Row& row : *hosted) {
      if (call.MatchesRow(row)) ++expected;
    }
    EXPECT_EQ(result->num_records, expected);
  }
}

/// The rows of `hosted` that `call` matches, in hosted order: the full scan
/// every indexed answer is checked against.
std::vector<Row> ScanHosted(const std::vector<Row>& hosted,
                            const RestCall& call) {
  std::vector<Row> out;
  for (const Row& row : hosted) {
    if (call.MatchesRow(row)) out.push_back(row);
  }
  return out;
}

/// A random condition of `kind` on `column`, drawn partly outside its domain.
AttrCondition RandomCondition(const ColumnDef& column, AttrCondition::Kind kind,
                              Rng* rng) {
  switch (kind) {
    case AttrCondition::Kind::kNone:
      return AttrCondition::None();
    case AttrCondition::Kind::kPoint: {
      if (!column.domain.is_numeric()) {
        static const char* const kCountries[] = {"US", "Canada", "Mexico"};
        return AttrCondition::Point(Value(kCountries[rng->Uniform(0, 2)]));
      }
      const Interval domain = column.domain.ToInterval();
      const int64_t v = rng->Uniform(domain.lo - 10, domain.hi + 10);
      // A double point must find the integer rows equal to it.
      return AttrCondition::Point(
          rng->Chance(0.2) ? Value(static_cast<double>(v)) : Value(v));
    }
    case AttrCondition::Kind::kRange: {
      const Interval domain = column.domain.ToInterval();
      const int64_t lo = rng->Uniform(domain.lo - 30, domain.hi + 30);
      const int64_t width = rng->Chance(0.5) ? rng->Uniform(0, 20)
                                             : rng->Uniform(0, domain.Width());
      return AttrCondition::Range(lo, lo + width);
    }
  }
  return AttrCondition::None();
}

TEST_F(MarketTest, IndexedExecutionMatchesFullScanRowForRow) {
  // Differential property: whichever index answers a call, its rows, their
  // order and its price equal a full scan of the hosted rows. Every mix of
  // none / point / range over each table's constrainable columns is drawn
  // repeatedly, with values in and out of the domain, while appends (with
  // duplicates, NULLs, doubles and out-of-domain values) grow both tables.
  Rng rng(20260);
  const auto random_value = [&](int64_t lo, int64_t hi) {
    if (rng.Chance(0.1)) return Value::Null();
    const int64_t v = rng.Uniform(lo, hi);
    if (rng.Chance(0.1)) return Value(static_cast<double>(v) + 0.5);
    return Value(v);
  };
  const auto random_country = [&]() {
    static const char* const kCountries[] = {"US", "Canada", "Mexico"};
    return rng.Chance(0.1) ? Value::Null()
                           : Value(kCountries[rng.Uniform(0, 2)]);
  };
  struct Mix {
    const TableDef* def;
    std::vector<AttrCondition::Kind> kinds;  // one per column
  };
  std::vector<Mix> mixes;
  for (const TableDef* def : {&weather(), &station()}) {
    std::vector<std::vector<AttrCondition::Kind>> partial = {
        std::vector<AttrCondition::Kind>(def->columns.size(),
                                         AttrCondition::Kind::kNone)};
    for (const size_t col : def->ConstrainableColumns()) {
      const ColumnDef& column = def->columns[col];
      std::vector<std::vector<AttrCondition::Kind>> extended;
      for (const auto& kinds : partial) {
        for (const auto kind :
             {AttrCondition::Kind::kNone, AttrCondition::Kind::kPoint,
              AttrCondition::Kind::kRange}) {
          if (kind == AttrCondition::Kind::kNone &&
              column.binding == BindingKind::kBound) {
            continue;
          }
          if (kind == AttrCondition::Kind::kRange &&
              !column.domain.is_numeric()) {
            continue;
          }
          extended.push_back(kinds);
          extended.back()[col] = kind;
        }
      }
      partial = std::move(extended);
    }
    for (auto& kinds : partial) mixes.push_back(Mix{def, std::move(kinds)});
  }
  ASSERT_EQ(mixes.size(), 12u + 6u);

  int64_t calls = 0;
  for (int round = 0; round < 30; ++round) {
    if (round > 0) {
      // A data release between rounds: fresh rows, copies of hosted rows
      // (collapsed by set semantics), NULLs and out-of-domain values.
      std::vector<Row> weather_rows, station_rows;
      const std::vector<Row> hosted_weather =
          *market_->HostedRowsForTesting("Weather");
      for (int i = 0; i < 12; ++i) {
        if (rng.Chance(0.25)) {
          weather_rows.push_back(
              hosted_weather[rng.Uniform(
                  0, static_cast<int64_t>(hosted_weather.size()) - 1)]);
          continue;
        }
        weather_rows.push_back(Row{random_country(), random_value(-5, 60),
                                   random_value(50, 450),
                                   rng.Chance(0.1) ? Value::Null()
                                                   : Value(20.5)});
      }
      for (int i = 0; i < 3; ++i) {
        station_rows.push_back(Row{random_country(), random_value(-5, 60)});
      }
      ASSERT_TRUE(market_->AppendRows("Weather", weather_rows).ok());
      ASSERT_TRUE(market_->AppendRows("Station", station_rows).ok());
    }
    for (const Mix& mix : mixes) {
      RestCall call = RestCall::Unconstrained(*mix.def);
      for (size_t col = 0; col < mix.kinds.size(); ++col) {
        call.conditions[col] =
            RandomCondition(mix.def->columns[col], mix.kinds[col], &rng);
      }
      Result<CallResult> result = market_->Execute(call);
      ASSERT_TRUE(result.ok()) << call.ToString();
      const std::vector<Row> expected =
          ScanHosted(*market_->HostedRowsForTesting(mix.def->name), call);
      const auto n = static_cast<int64_t>(expected.size());
      ASSERT_EQ(result->rows, expected) << call.ToString();
      EXPECT_EQ(result->num_records, n) << call.ToString();
      EXPECT_EQ(result->transactions, TransactionsFor(n, 100));
      EXPECT_DOUBLE_EQ(result->price,
                       static_cast<double>(TransactionsFor(n, 100)));
      ++calls;
    }
  }
  EXPECT_GE(calls, 500);
}

TEST_F(MarketTest, HostingCollapsesDuplicateRows) {
  // Hosted tables are sets: duplicates within one HostTable input, across
  // AppendRows and across numeric types (1 == 1.0) are held once.
  ASSERT_TRUE(market_
                  ->HostTable("Station",
                              {{Value("US"), Value(int64_t{2})},
                               {Value("US"), Value(int64_t{2})},
                               {Value("Canada"), Value(int64_t{1})},
                               {Value("Canada"), Value(1.0)},
                               {Value("Canada"), Value::Null()},
                               {Value("Canada"), Value::Null()}})
                  .ok());
  EXPECT_EQ(*market_->TableSize("Station"), 3);

  ASSERT_TRUE(market_
                  ->AppendRows("Station", {{Value("US"), Value(2.0)},
                                           {Value("US"), Value(int64_t{4})},
                                           {Value("US"), Value(int64_t{4})},
                                           {Value("US"), Value(4.0)},
                                           {Value("Canada"), Value::Null()},
                                           {Value("Canada"), Value(int64_t{1})}})
                  .ok());
  EXPECT_EQ(*market_->TableSize("Station"), 4);

  const auto count = [&](AttrCondition station_id) {
    RestCall call = RestCall::Unconstrained(station());
    call.conditions[1] = std::move(station_id);
    Result<CallResult> result = market_->Execute(call);
    EXPECT_TRUE(result.ok());
    return result.ok() ? result->num_records : -1;
  };
  EXPECT_EQ(count(AttrCondition::None()), 4);
  EXPECT_EQ(count(AttrCondition::Point(Value(int64_t{1}))), 1);
  EXPECT_EQ(count(AttrCondition::Point(Value(1.0))), 1);
  EXPECT_EQ(count(AttrCondition::Point(Value(int64_t{2}))), 1);
  EXPECT_EQ(count(AttrCondition::Point(Value(4.0))), 1);
  EXPECT_EQ(count(AttrCondition::Range(1, 4)), 3);
}

TEST_F(MarketTest, ConcurrentExecuteDuringAppendMatchesAPrefix) {
  // Readers call Execute while a writer releases batches of new rows. Every
  // answer must equal a full scan of the table as it stood after some whole
  // number of batches: appends are atomic, and rows come back in hosted
  // order whichever index served them.
  constexpr int kBatches = 40;
  constexpr int kBatchRows = 10;
  constexpr int kReaders = 3;
  std::vector<Row> table = *market_->HostedRowsForTesting("Weather");
  std::vector<size_t> boundaries = {table.size()};
  std::vector<std::vector<Row>> batches(kBatches);
  for (int b = 0; b < kBatches; ++b) {
    for (int i = 0; i < kBatchRows; ++i) {
      // Dates 105, 115, ... fall between the fixture's dates, so every new
      // row is distinct and lands inside the existing index spans.
      const int64_t j = b * kBatchRows + i;
      const int64_t station_id = 1 + j % 50;
      batches[b].push_back(Row{Value(station_id % 2 == 0 ? "US" : "Canada"),
                               Value(station_id), Value(105 + 10 * (j / 50)),
                               Value(20.5)});
    }
    table.insert(table.end(), batches[b].begin(), batches[b].end());
    boundaries.push_back(table.size());
  }

  struct Observed {
    RestCall call;
    CallResult result;
  };
  std::atomic<bool> writer_done{false};
  std::vector<std::vector<Observed>> observed(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(static_cast<uint64_t>(7 + r));
      for (int n = 0; n < 2000 && (n < 50 || !writer_done.load()); ++n) {
        RestCall call = RestCall::Unconstrained(weather());
        if (rng.Chance(0.5)) {
          call.conditions[1] = AttrCondition::Point(Value(rng.Uniform(1, 50)));
        } else {
          const int64_t lo = rng.Uniform(1, 50);
          call.conditions[1] = AttrCondition::Range(lo, rng.Uniform(lo, 50));
        }
        if (rng.Chance(0.3)) {
          call.conditions[0] =
              AttrCondition::Point(Value(rng.Chance(0.5) ? "US" : "Canada"));
        }
        if (rng.Chance(0.7)) {
          const int64_t lo = rng.Uniform(100, 200);
          call.conditions[2] = AttrCondition::Range(lo, rng.Uniform(lo, 200));
        }
        Result<CallResult> result = market_->Execute(call);
        if (!result.ok()) return;  // reported below as a missing answer
        observed[r].push_back(Observed{std::move(call), std::move(*result)});
      }
    });
  }
  std::thread writer([&] {
    for (const std::vector<Row>& batch : batches) {
      if (!market_->AppendRows("Weather", batch).ok()) break;
    }
    writer_done.store(true);
  });
  writer.join();
  for (std::thread& reader : readers) reader.join();
  ASSERT_EQ(*market_->TableSize("Weather"),
            static_cast<int64_t>(table.size()));

  for (int r = 0; r < kReaders; ++r) {
    ASSERT_GE(observed[r].size(), 50u);
    for (const Observed& o : observed[r]) {
      const int64_t n = o.result.num_records;
      ASSERT_EQ(n, static_cast<int64_t>(o.result.rows.size()));
      EXPECT_EQ(o.result.transactions, TransactionsFor(n, 100));
      // The answer over the table after k batches is the first
      // count(matches < boundary k) matches of the final table.
      std::vector<size_t> matches;
      for (size_t i = 0; i < table.size(); ++i) {
        if (o.call.MatchesRow(table[i])) matches.push_back(i);
      }
      bool matches_a_prefix = false;
      for (const size_t boundary : boundaries) {
        const auto k = static_cast<int64_t>(
            std::lower_bound(matches.begin(), matches.end(), boundary) -
            matches.begin());
        matches_a_prefix = matches_a_prefix || k == n;
      }
      ASSERT_TRUE(matches_a_prefix) << o.call.ToString() << " n=" << n;
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(o.result.rows[i], table[matches[i]]) << o.call.ToString();
      }
    }
  }
}

TEST_F(MarketTest, AppendRowsVisibleAndPriced) {
  ASSERT_TRUE(market_
                  ->AppendRows("Station", {{Value("US"), Value(int64_t{7})}})
                  .ok());
  RestCall call = RestCall::Unconstrained(station());
  call.conditions[1] = AttrCondition::Point(Value(int64_t{7}));
  Result<CallResult> result = market_->Execute(call);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_records, 2);  // original + appended
}

TEST_F(MarketTest, HostRejectsLocalAndUnknownTables) {
  EXPECT_EQ(market_->HostTable("Nope", {}).code(), Status::Code::kNotFound);
}

TEST_F(MarketTest, TableSize) {
  Result<int64_t> size = market_->TableSize("Weather");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, total_rows_);
}

TEST_F(MarketTest, ConnectorBillsAndNotifies) {
  MarketConnector connector(market_.get());
  int notified = 0;
  connector.AddListener([&notified](const RestCall&, const CallResult& r) {
    ++notified;
    EXPECT_GT(r.num_records, 0);
  });
  RestCall call = RestCall::Unconstrained(station());
  ASSERT_TRUE(connector.Get(call).ok());
  EXPECT_EQ(notified, 1);
  EXPECT_EQ(connector.meter().total_calls(), 1);
  EXPECT_EQ(connector.meter().total_transactions(), 1);
  EXPECT_EQ(connector.meter().TransactionsFor("WHW"), 1);
  // Failed calls do not bill or notify.
  RestCall bad = RestCall::Unconstrained(weather());
  EXPECT_FALSE(connector.Get(bad).ok());
  EXPECT_EQ(connector.meter().total_calls(), 1);
  EXPECT_EQ(notified, 1);
}

TEST_F(MarketTest, MeterResetAndReport) {
  MarketConnector connector(market_.get());
  ASSERT_TRUE(connector.Get(RestCall::Unconstrained(station())).ok());
  EXPECT_NE(connector.meter().Report().find("WHW"), std::string::npos);
  connector.mutable_meter()->Reset();
  EXPECT_EQ(connector.meter().total_transactions(), 0);
}

TEST_F(MarketTest, CallRegionEncodesConditions) {
  RestCall call = RestCall::Unconstrained(weather());
  call.conditions[0] = AttrCondition::Point(Value("US"));
  call.conditions[1] = AttrCondition::Point(Value(int64_t{7}));
  call.conditions[2] = AttrCondition::Range(150, 500);  // clipped to 400
  const Box region = CallRegion(weather(), call);
  ASSERT_EQ(region.num_dims(), 3u);
  EXPECT_EQ(region.dim(0), Interval::Point(1));  // "US" is code 1
  EXPECT_EQ(region.dim(1), Interval::Point(7));
  EXPECT_EQ(region.dim(2), Interval(150, 400));
}

TEST_F(MarketTest, CallRegionOutOfDomainPointIsEmpty) {
  RestCall call = RestCall::Unconstrained(station());
  call.conditions[0] = AttrCondition::Point(Value("Atlantis"));
  EXPECT_TRUE(CallRegion(station(), call).empty());
}

TEST_F(MarketTest, CallFromRegionRoundTrips) {
  RestCall call = RestCall::Unconstrained(weather());
  call.conditions[0] = AttrCondition::Point(Value("Canada"));
  call.conditions[1] = AttrCondition::Point(Value(int64_t{9}));
  call.conditions[2] = AttrCondition::Range(110, 120);
  const Box region = CallRegion(weather(), call);
  Result<RestCall> rebuilt = CallFromRegion(weather(), region);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_TRUE(rebuilt->Validate(weather()).ok());
  EXPECT_EQ(CallRegion(weather(), *rebuilt), region);
}

TEST_F(MarketTest, CallFromRegionFullDomainBecomesUnconstrained) {
  const Box region = station().FullRegion();
  Result<RestCall> call = CallFromRegion(station(), region);
  ASSERT_TRUE(call.ok());
  EXPECT_TRUE(call->conditions[0].is_none());
  EXPECT_TRUE(call->conditions[1].is_none());
}

TEST_F(MarketTest, CallFromRegionBoundNumericFullDomainGetsExplicitRange) {
  Box region = weather().FullRegion();
  region.dim(0) = Interval::Point(0);  // Canada
  Result<RestCall> call = CallFromRegion(weather(), region);
  ASSERT_TRUE(call.ok());
  // StationID is bound: the full domain must be passed as an explicit range.
  EXPECT_EQ(call->conditions[1].kind, AttrCondition::Kind::kRange);
  EXPECT_TRUE(call->Validate(weather()).ok());
}

TEST_F(MarketTest, CallFromRegionRejectsCategoricalSubRange) {
  TableDef def = station();
  Box region = def.FullRegion();
  // Two-country domain: a strict sub-range of width 2 equals the domain, so
  // widen the catalog first.
  catalog::Catalog cat2;
  ASSERT_TRUE(cat2.RegisterDataset(DatasetDef{"D", 1.0, 100}).ok());
  TableDef wide;
  wide.name = "T";
  wide.dataset = "D";
  wide.columns = {ColumnDef::Free(
      "c", ValueType::kString,
      AttrDomain::Categorical({"a", "b", "c", "d"}))};
  wide.cardinality = 0;
  ASSERT_TRUE(cat2.RegisterTable(wide).ok());
  const Box sub({Interval(1, 2)});
  EXPECT_EQ(CallFromRegion(*cat2.FindTable("T"), sub).status().code(),
            Status::Code::kBindingViolation);
  (void)region;
}

TEST_F(MarketTest, CallFromRegionRejectsEmptyAndMismatched) {
  EXPECT_FALSE(CallFromRegion(station(), Box({Interval::Empty(),
                                              Interval(1, 2)}))
                   .ok());
  EXPECT_FALSE(CallFromRegion(station(), Box({Interval(0, 1)})).ok());
}

}  // namespace
}  // namespace market
}  // namespace payless
