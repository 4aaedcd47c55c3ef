#include "exec/execution_engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <optional>
#include <unordered_set>

#include "core/optimizer.h"
#include "exec/local_eval.h"
#include "federation/endpoint_router.h"
#include "federation/market_endpoint.h"
#include "market/call_scheduler.h"
#include "market/rest_call.h"
#include "obs/trace.h"
#include "storage/ops.h"

namespace payless::exec {

namespace {

/// Merges one access's rows in arrival order with whole-row deduplication
/// (stored and freshly bought tuples can overlap when a remainder box spans
/// stored regions). Each row is kept once: stored rows by reference into
/// the pinned snapshot, bought rows moved into the access's `bought` deque,
/// and the dedup set holds pointers to those same rows. Rows are hashed
/// only once a bought row arrives: before that, nothing can collide.
class RowSet {
 public:
  RowSet(std::deque<Row>* bought, std::vector<const Row*>* rows)
      : bought_(bought), rows_(rows) {}

  /// Rows read from one pinned snapshot over pairwise-disjoint regions: a
  /// row lies in exactly one such region and the store never returns the
  /// same tuple twice for one region, so they are distinct from each other
  /// and only need checking against rows merged before them.
  void AddStored(const std::vector<const Row*>& stored) {
    if (rows_->empty()) {
      rows_->assign(stored.begin(), stored.end());
      return;
    }
    IndexPending();
    for (const Row* row : stored) {
      if (seen_.insert(row).second) Append(row);
    }
  }

  /// Rows a market call delivered, moved in.
  void AddBought(std::vector<Row>&& bought) {
    IndexPending();
    for (Row& row : bought) {
      if (seen_.contains(&row)) continue;
      bought_->push_back(std::move(row));
      seen_.insert(&bought_->back());
      Append(&bought_->back());
    }
  }

  size_t size() const { return rows_->size(); }

 private:
  void Append(const Row* row) {
    rows_->push_back(row);
    indexed_ = rows_->size();
  }
  /// Enters rows merged without a check into the dedup set.
  void IndexPending() {
    for (; indexed_ < rows_->size(); ++indexed_) {
      seen_.insert((*rows_)[indexed_]);
    }
  }

  std::deque<Row>* bought_;
  std::vector<const Row*>* rows_;
  std::unordered_set<const Row*, RowPtrHasher, RowPtrEqual> seen_;
  size_t indexed_ = 0;  // rows_[0, indexed_) are in seen_
};

/// Microseconds elapsed since `start` — the stage-decomposition clock.
int64_t StageMicros(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// The in-flight window used when ExecConfig::max_parallel_calls is 0.
constexpr size_t kDefaultCallWindow = 16;

/// Issues every call and merges results strictly in call order, so rows,
/// row order, per-call billing and stats do not depend on the window. A
/// batch of two or more calls with a window above 1 rides the connector's
/// event-loop CallScheduler with `window` calls in flight; anything else is
/// a plain serial loop on the calling thread. Errors are reported in call
/// order too. Pricing depends only on seller-side data (never on buyer-side
/// state), so issue order cannot change what any one call is billed.
///
/// Fail-fast under faults: the first call whose retries exhaust (or whose
/// deadline blows) cancels the not-yet-issued ones, so a doomed access
/// stops spending money. Calls already delivered stay billed AND counted in
/// exec_stats — that is the query's spend-so-far, and their results reached
/// the listeners, so a re-issued query reuses them via the semantic store.
/// `delivered[i]` is set for every call whose rows were merged.
Status IssueCalls(market::MarketConnector* connector, size_t window,
                  const std::vector<market::RestCall>& calls,
                  market::Clock::time_point deadline,
                  const market::CallObs& call_obs, RowSet* rows,
                  ExecStats* exec_stats, std::vector<bool>* delivered) {
  delivered->assign(calls.size(), false);
  std::vector<std::optional<Result<market::CallResult>>> outcomes;
  if (window > 1 && calls.size() > 1) {
    std::vector<market::CallScheduler::Item> items(calls.size());
    for (size_t i = 0; i < calls.size(); ++i) {
      items[i].call = &calls[i];
      items[i].deadline = deadline;
      items[i].call_obs = &call_obs;
    }
    outcomes = connector->scheduler()->ExecuteBatch(items, window,
                                                    /*cancel_on_error=*/true);
  } else {
    outcomes.resize(calls.size());
    for (size_t i = 0; i < calls.size(); ++i) {
      outcomes[i].emplace(connector->Get(calls[i], deadline, &call_obs));
      if (!(*outcomes[i]).ok()) break;  // the rest stay unissued
    }
  }
  // Accumulate EVERY delivered result before reporting the (call-order
  // first) error, so exec_stats is the true spend-so-far.
  Status first_error = Status::OK();
  for (size_t i = 0; i < outcomes.size(); ++i) {
    std::optional<Result<market::CallResult>>& outcome = outcomes[i];
    if (!outcome.has_value()) {
      if (exec_stats != nullptr) ++exec_stats->calls_cancelled;
      continue;  // skipped after an earlier failure: never issued
    }
    Result<market::CallResult>& result = *outcome;
    if (!result.ok()) {
      if (first_error.ok()) first_error = result.status();
      continue;
    }
    (*delivered)[i] = true;
    rows->AddBought(std::move(result->rows));
    if (exec_stats != nullptr) {
      ++exec_stats->calls;
      exec_stats->transactions += result->transactions;
      exec_stats->rows_from_market += result->num_records;
    }
  }
  return first_error;
}

/// IssueCalls plus cross-endpoint failover. When the current endpoint dies
/// for this dataset (breaker open / retries exhausted — a retryable code),
/// only the calls that delivered NOTHING there are re-issued at the
/// next-cheapest live endpoint the router names. Delivered calls stay
/// billed at the endpoint that served them and their rows are already
/// merged, so failover never buys a row twice; each connector bills its
/// own meter, so the ledger keeps reconciling with the per-endpoint meter
/// totals. Without a router this is exactly IssueCalls.
Status IssueWithFailover(market::MarketConnector* connector,
                         federation::EndpointRouter* router,
                         const std::string& dataset, size_t window,
                         std::vector<market::RestCall> calls,
                         market::Clock::time_point deadline,
                         const market::CallObs& call_obs, RowSet* rows,
                         ExecStats* exec_stats) {
  std::vector<std::string> tried;
  while (true) {
    if (router != nullptr && !calls.empty()) {
      router->CountRoutedCalls(connector->market_label(),
                               static_cast<int64_t>(calls.size()));
    }
    std::vector<bool> delivered;
    const Status status = IssueCalls(connector, window, calls, deadline,
                                     call_obs, rows, exec_stats, &delivered);
    if (status.ok() || router == nullptr || !IsRetryable(status.code())) {
      return status;
    }
    std::vector<market::RestCall> remaining;
    remaining.reserve(calls.size());
    for (size_t i = 0; i < calls.size(); ++i) {
      if (!delivered[i]) remaining.push_back(std::move(calls[i]));
    }
    tried.push_back(connector->market_label());
    const std::string next = router->NextCheapestLive(dataset, tried);
    if (next.empty()) return status;  // every endpoint tried or down
    connector = router->ConnectorFor(next);
    router->CountFailover();
    calls = std::move(remaining);
  }
}

}  // namespace

Result<ExecutionEngine::AccessRows> ExecutionEngine::FetchRelation(
    const sql::BoundQuery& query, const core::AccessSpec& access,
    size_t access_index, const ColumnTable& left_result,
    const std::vector<size_t>& offsets, const ExecConfig& config,
    ExecStats* exec_stats) {
  const sql::BoundRelation& rel = query.relations[access.rel];
  const catalog::TableDef& def = *rel.def;
  const size_t window = config.max_parallel_calls != 0
                            ? config.max_parallel_calls
                            : kDefaultCallWindow;

  // Per-operator span: every access of the plan gets one; the market-call
  // spans the connector opens underneath are its children — including the
  // ones the call scheduler's loop thread drives. The estimate
  // attrs mirror the AccessSpec so EXPLAIN ANALYZE can join estimated vs.
  // actual per access; the actual deltas are attached below, after the
  // access ran.
  obs::ScopedSpan access_span(config.obs.trace, "access:" + def.name,
                              config.obs.parent_span);
  access_span.AddAttr("kind", std::string(core::AccessKindName(access.kind)));
  access_span.AddAttr("access_index", static_cast<int64_t>(access_index));
  access_span.AddAttr("est_rows", llround(access.est_rows));
  access_span.AddAttr("est_transactions", access.est_transactions);
  access_span.AddAttr("est_calls", access.est_calls);
  if (access.kind == core::AccessSpec::Kind::kBind) {
    access_span.AddAttr("est_bind_values", llround(access.est_bind_values));
  }
  market::CallObs call_obs = config.obs;
  if (access_span.id() != 0) call_obs.parent_span = access_span.id();

  // Buy-site routing: with a router, this access's calls start at the
  // connector of the endpoint the optimizer chose (`buy_site`); without
  // one, at the single market connector. Failover mid-access is handled
  // inside IssueWithFailover.
  market::MarketConnector* connector =
      router_ != nullptr ? router_->ConnectorFor(access.buy_site) : connector_;
  if (router_ != nullptr && !access.buy_site.empty()) {
    access_span.AddAttr("buy_site", access.buy_site);
  }
  // The buy-site's page size: remainder chunking must match the terms the
  // chosen endpoint actually bills under, not the base catalog's.
  const auto buy_site_tuples_per_txn = [&](int64_t base) -> int64_t {
    if (router_ == nullptr || access.buy_site.empty()) return base;
    federation::MarketEndpoint* endpoint =
        router_->federation()->endpoint(access.buy_site);
    if (endpoint == nullptr) return base;
    const catalog::DatasetDef* terms =
        endpoint->catalog().FindDataset(def.dataset);
    return terms != nullptr ? terms->tuples_per_transaction : base;
  };

  // Every market call of this access goes through here.
  const auto issue_all = [&](std::vector<market::RestCall> calls,
                             RowSet* rows) -> Status {
    return IssueWithFailover(connector, router_, def.dataset, window,
                             std::move(calls), config.deadline, call_obs,
                             rows, exec_stats);
  };
  // Coverage and rows of this access are read from ONE snapshot of the
  // table, so they always agree even while a concurrent Store grows the
  // table or DropTable evicts it; the access's row references into it stay
  // valid for as long as `out` holds it.
  AccessRows out{store_->Pin(def.name), {}, {}};
  const semstore::SemanticStore::TableSnapshot& stored = out.stored;
  RowSet rows(&out.bought, &out.rows);

  const ExecStats before = exec_stats != nullptr ? *exec_stats : ExecStats{};
  const auto fetch = [&]() -> Status {
    switch (access.kind) {
      case core::AccessSpec::Kind::kEmpty:
        return Status::OK();

      case core::AccessSpec::Kind::kLocal: {
        const storage::Table* local = local_db_->FindTable(def.name);
        if (local == nullptr) {
          return Status::NotFound("local table '" + def.name +
                                  "' has no data in the buyer DBMS");
        }
        out.rows.reserve(local->num_rows());
        for (const Row& row : local->rows()) out.rows.push_back(&row);
        return Status::OK();
      }

      case core::AccessSpec::Kind::kCached: {
        const Box region = rel.QueryRegion();
        if (stored.Covers(region, config.min_epoch)) {
          out.rows = stored.RowsInRegion(def, region, config.min_epoch);
          if (exec_stats != nullptr) {
            exec_stats->rows_from_cache +=
                static_cast<int64_t>(out.rows.size());
          }
          access_span.AddAttr("rows_cached",
                              static_cast<int64_t>(out.rows.size()));
          return Status::OK();
        }
        // The coverage the plan relied on was evicted after planning: buy
        // the relation like a plain access.
        [[fallthrough]];
      }

      case core::AccessSpec::Kind::kPlain: {
        const Box region = rel.QueryRegion();
        if (config.use_sqr) {
          // Re-run the rewrite against the pinned store state: views may
          // have grown or been evicted since planning (earlier accesses of
          // this very query included). The remainder buys whatever the
          // pinned coverage misses; RowSet dedupes any overlap.
          const std::vector<Box> covered =
              stored.CoveredRegions(config.min_epoch);
          const std::vector<const Row*> cached =
              stored.RowsInRegion(def, region, config.min_epoch);
          if (exec_stats != nullptr) {
            exec_stats->rows_from_cache += static_cast<int64_t>(cached.size());
          }
          rows.AddStored(cached);
          const catalog::DatasetDef* dataset = catalog_->DatasetOf(def);
          semstore::RemainderOptions rem_options = config.remainder;
          rem_options.tuples_per_transaction =
              buy_site_tuples_per_txn(dataset->tuples_per_transaction);
          const semstore::RemainderResult rem = semstore::GenerateRemainder(
              region, covered, core::Optimizer::DimSpecsFor(def),
              [&](const Box& box) {
                return stats_->EstimateRows(def.name, box);
              },
              rem_options);
          std::vector<market::RestCall> calls;
          calls.reserve(rem.remainder_boxes.size());
          for (const Box& box : rem.remainder_boxes) {
            Result<market::RestCall> call = market::CallFromRegion(def, box);
            PAYLESS_RETURN_IF_ERROR(call.status());
            calls.push_back(std::move(*call));
          }
          access_span.AddAttr("rows_cached",
                              static_cast<int64_t>(rows.size()));
          access_span.AddAttr("remainder_calls",
                              static_cast<int64_t>(calls.size()));
          PAYLESS_RETURN_IF_ERROR(issue_all(std::move(calls), &rows));
        } else {
          market::RestCall call;
          call.table = def.name;
          call.conditions = rel.conditions;
          PAYLESS_RETURN_IF_ERROR(issue_all({call}, &rows));
        }
        return Status::OK();
      }

      case core::AccessSpec::Kind::kBind: {
        // Binding columns and the left-result positions feeding them.
        std::vector<size_t> bind_cols;
        std::vector<size_t> left_positions;
        for (const sql::JoinEdge& edge : access.bind_edges) {
          const bool own_left = edge.left.rel == access.rel;
          const sql::BoundColumnRef& own = own_left ? edge.left : edge.right;
          const sql::BoundColumnRef& other = own_left ? edge.right : edge.left;
          if (std::find(bind_cols.begin(), bind_cols.end(), own.col) !=
              bind_cols.end()) {
            continue;  // one feeding edge per binding column suffices
          }
          bind_cols.push_back(own.col);
          left_positions.push_back(offsets[other.rel] + other.col);
        }
        if (bind_cols.empty()) {
          return Status::Internal("bind access without usable bind edges");
        }

        // Distinct binding combinations from the running join result.
        std::vector<Row> combos;
        {
          std::unordered_set<Row, RowHasher> seen;
          for (size_t r = 0; r < left_result.num_rows(); ++r) {
            Row combo;
            combo.reserve(left_positions.size());
            bool has_null = false;
            for (const size_t pos : left_positions) {
              const Value& v = left_result.At(r, pos);
              if (v.is_null()) has_null = true;
              combo.push_back(v);
            }
            if (has_null) continue;  // NULL never joins
            if (seen.insert(combo).second) combos.push_back(std::move(combo));
          }
        }

        const bool single_dim = bind_cols.size() == 1;
        if (config.use_sqr && single_dim) {
          // Fig. 9 path: the binding values are KNOWN here, so the bind
          // dimension becomes a value-set dimension and remainder generation
          // may merge values into range calls or reuse stored slabs.
          const size_t col = bind_cols[0];
          const catalog::ColumnDef& column = def.columns[col];
          const std::vector<size_t> constrainable = def.ConstrainableColumns();
          const auto dim_it =
              std::find(constrainable.begin(), constrainable.end(), col);
          assert(dim_it != constrainable.end());
          const size_t dim =
              static_cast<size_t>(dim_it - constrainable.begin());

          Box region = rel.QueryRegion();
          std::vector<int64_t> codes;
          for (const Row& combo : combos) {
            const std::optional<int64_t> code = column.domain.Encode(combo[0]);
            // Values outside the published domain cannot exist market-side.
            if (code.has_value() && region.dim(dim).Contains(*code)) {
              codes.push_back(*code);
            }
          }
          std::sort(codes.begin(), codes.end());
          codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
          if (codes.empty()) return Status::OK();

          std::vector<semstore::DimSpec> dims =
              core::Optimizer::DimSpecsFor(def);
          dims[dim].mode = semstore::DimSpec::Mode::kValueSet;
          dims[dim].known_values = codes;
          dims[dim].whole_domain_allowed =
              column.binding == catalog::BindingKind::kFree;
          region.dim(dim) = Interval(codes.front(), codes.back());

          // Stored tuples on the requested slabs, from the same pinned
          // state as the coverage the remainder is generated against. The
          // slabs are disjoint (one binding value each).
          const std::vector<Box> covered =
              stored.CoveredRegions(config.min_epoch);
          std::vector<const Row*> cached;
          for (const int64_t code : codes) {
            Box slab = region;
            slab.dim(dim) = Interval::Point(code);
            const std::vector<const Row*> slab_rows =
                stored.RowsInRegion(def, slab, config.min_epoch);
            cached.insert(cached.end(), slab_rows.begin(), slab_rows.end());
          }
          if (exec_stats != nullptr) {
            exec_stats->rows_from_cache += static_cast<int64_t>(cached.size());
          }
          rows.AddStored(cached);

          const catalog::DatasetDef* dataset = catalog_->DatasetOf(def);
          semstore::RemainderOptions rem_options = config.remainder;
          rem_options.tuples_per_transaction =
              buy_site_tuples_per_txn(dataset->tuples_per_transaction);
          const semstore::RemainderResult rem = semstore::GenerateRemainder(
              region, covered, dims,
              [&](const Box& box) {
                return stats_->EstimateRows(def.name, box);
              },
              rem_options);
          std::vector<market::RestCall> calls;
          calls.reserve(rem.remainder_boxes.size());
          for (const Box& box : rem.remainder_boxes) {
            Result<market::RestCall> call = market::CallFromRegion(def, box);
            PAYLESS_RETURN_IF_ERROR(call.status());
            calls.push_back(std::move(*call));
          }
          access_span.AddAttr("binding_values",
                              static_cast<int64_t>(codes.size()));
          access_span.AddAttr("remainder_calls",
                              static_cast<int64_t>(calls.size()));
          PAYLESS_RETURN_IF_ERROR(issue_all(std::move(calls), &rows));
        } else {
          // One point call per binding combination. With SQR on, the
          // combinations the pinned store state fully covers are served from
          // it up front (distinct combinations are disjoint points); the rest
          // go to the market as one batch, merged in binding-value order.
          std::vector<market::RestCall> calls;
          calls.reserve(combos.size());
          std::vector<const Row*> cached;
          int64_t combos_cached = 0;
          for (const Row& combo : combos) {
            market::RestCall call;
            call.table = def.name;
            call.conditions = rel.conditions;
            for (size_t c = 0; c < bind_cols.size(); ++c) {
              call.conditions[bind_cols[c]] =
                  market::AttrCondition::Point(combo[c]);
            }
            if (config.use_sqr) {
              const Box point_region = market::CallRegion(def, call);
              if (point_region.empty()) continue;  // outside the domain
              if (stored.Covers(point_region, config.min_epoch)) {
                const std::vector<const Row*> combo_rows =
                    stored.RowsInRegion(def, point_region, config.min_epoch);
                cached.insert(cached.end(), combo_rows.begin(),
                              combo_rows.end());
                ++combos_cached;
                continue;
              }
            }
            calls.push_back(std::move(call));
          }
          if (exec_stats != nullptr) {
            exec_stats->rows_from_cache += static_cast<int64_t>(cached.size());
          }
          rows.AddStored(cached);
          access_span.AddAttr("binding_values",
                              static_cast<int64_t>(combos.size()));
          access_span.AddAttr("combos_from_store", combos_cached);
          PAYLESS_RETURN_IF_ERROR(issue_all(std::move(calls), &rows));
        }
        return Status::OK();
      }
    }
    return Status::Internal("unknown access kind");
  };

  const Status fetched = fetch();
  // Actuals, attached whether the access succeeded or died mid-flight:
  // what EXPLAIN ANALYZE (and any trace consumer) compares the estimates
  // against. `transactions` here is the spend billed to delivered calls;
  // retries and waste live on the market.get child spans.
  if (exec_stats != nullptr) {
    access_span.AddAttr("calls", exec_stats->calls - before.calls);
    access_span.AddAttr("transactions",
                        exec_stats->transactions - before.transactions);
    access_span.AddAttr("rows_from_market",
                        exec_stats->rows_from_market - before.rows_from_market);
  }
  PAYLESS_RETURN_IF_ERROR(fetched);
  access_span.AddAttr("rows", static_cast<int64_t>(out.rows.size()));
  return out;
}

Result<storage::Table> ExecutionEngine::Execute(const sql::BoundQuery& query,
                                                const core::Plan& plan,
                                                const ExecConfig& config,
                                                ExecStats* exec_stats) {
  const size_t n = query.relations.size();
  if (plan.accesses.size() != n) {
    return Status::InvalidArgument("plan covers " +
                                   std::to_string(plan.accesses.size()) +
                                   " of " + std::to_string(n) + " relations");
  }
  std::vector<bool> seen(n, false);
  for (const core::AccessSpec& access : plan.accesses) {
    if (access.rel >= n || seen[access.rel]) {
      return Status::InvalidArgument("plan accesses a relation twice");
    }
    seen[access.rel] = true;
  }

  std::vector<size_t> offsets(n, 0);
  std::vector<bool> placed(n, false);
  ColumnTable current;  // unit table: zero columns, one row
  current.Grow(1);
  std::vector<storage::SchemaColumn> placed_cols;
  size_t width = 0;

  // Stage decomposition (wall-clock partition): everything FetchRelation
  // does — store reads, remainder generation, market calls — is `fetch`;
  // running-join maintenance is `merge`; the final SELECT/GROUP BY is
  // `local_eval`. These three plus the planner's stages sum to the query's
  // end-to-end latency (small bookkeeping residue aside).
  obs::QueryStageAccumulator* const stages = config.obs.stages;
  for (size_t a = 0; a < plan.accesses.size(); ++a) {
    const core::AccessSpec& access = plan.accesses[a];
    const auto fetch_start = std::chrono::steady_clock::now();
    Result<AccessRows> fetched =
        FetchRelation(query, access, a, current, offsets, config, exec_stats);
    if (stages != nullptr) {
      stages->Add(obs::kStageFetch, StageMicros(fetch_start));
    }
    PAYLESS_RETURN_IF_ERROR(fetched.status());

    // Maintain the running join columnar (it feeds later bind joins). The
    // access's rows are filtered straight from their references into the
    // first column block; the first access IS the running join.
    const auto merge_start = std::chrono::steady_clock::now();
    const catalog::TableDef& def = *query.relations[access.rel].def;
    ColumnTable filtered = FilterRelationColumns(query, access.rel,
                                                 fetched->rows,
                                                 def.columns.size());
    const size_t filtered_width = filtered.num_columns();
    if (a == 0) {
      current = std::move(filtered);
    } else {
      std::vector<std::pair<size_t, size_t>> keys;
      for (const sql::JoinEdge& e : query.joins) {
        if (e.left.rel == access.rel && placed[e.right.rel]) {
          keys.emplace_back(offsets[e.right.rel] + e.right.col, e.left.col);
        } else if (e.right.rel == access.rel && placed[e.left.rel]) {
          keys.emplace_back(offsets[e.left.rel] + e.left.col, e.right.col);
        }
      }
      current = keys.empty() ? BlockCartesian(current, filtered)
                             : BlockHashJoin(current, filtered, keys);
    }
    offsets[access.rel] = width;
    width += filtered_width;
    placed[access.rel] = true;
    const storage::Schema schema = storage::SchemaFromTableDef(def);
    placed_cols.insert(placed_cols.end(), schema.columns().begin(),
                       schema.columns().end());
    if (stages != nullptr) {
      stages->Add(obs::kStageMerge, StageMicros(merge_start));
    }
  }

  // The running join already holds the complete filtered result: finish the
  // SELECT / GROUP BY directly over it instead of re-joining from scratch.
  const auto eval_start = std::chrono::steady_clock::now();
  Result<storage::Table> result =
      EvaluateJoined(query, current, offsets, std::move(placed_cols));
  if (stages != nullptr) {
    stages->Add(obs::kStageLocalEval, StageMicros(eval_start));
  }
  return result;
}

}  // namespace payless::exec
