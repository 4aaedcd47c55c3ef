#include "exec/local_eval.h"

#include <algorithm>
#include <cassert>

#include "market/rest_call.h"
#include "storage/ops.h"

namespace payless::exec {

namespace {

/// Join-result column position of a bound column ref, given per-relation
/// offsets in the concatenated schema.
size_t ColumnPosition(const sql::BoundQuery& query,
                      const std::vector<size_t>& offsets,
                      const sql::BoundColumnRef& ref) {
  (void)query;
  return offsets[ref.rel] + ref.col;
}

/// References to every row of `table`.
std::vector<const Row*> RowRefs(const storage::Table& table) {
  std::vector<const Row*> refs;
  refs.reserve(table.num_rows());
  for (const Row& row : table.rows()) refs.push_back(&row);
  return refs;
}

}  // namespace

storage::Table FilterRelation(const sql::BoundQuery& query, size_t rel,
                              const storage::Table& raw) {
  const size_t width = raw.schema().num_columns();
  return storage::Table(
      raw.schema(),
      RowsFromColumns(
          FilterRelationColumns(query, rel, RowRefs(raw), width)));
}

ColumnTable FilterRelationColumns(const sql::BoundQuery& query, size_t rel,
                                  const std::vector<const Row*>& rows,
                                  size_t num_columns) {
  const sql::BoundRelation& relation = query.relations[rel];
  ColumnTable out(num_columns);
  if (relation.always_empty) return out;

  std::vector<uint32_t> sel;
  sel.reserve(kBlockCapacity);
  for (size_t base = 0; base < rows.size(); base += kBlockCapacity) {
    const size_t limit = std::min(base + kBlockCapacity, rows.size());
    sel.clear();
    for (size_t i = base; i < limit; ++i) {
      sel.push_back(static_cast<uint32_t>(i));
    }
    // One predicate column at a time, compacting the selection vector: each
    // pass touches only the column it tests, and rows dropped by an earlier
    // predicate never evaluate a later one (same short-circuit as the
    // row-at-a-time loop, so the kept set and its order are identical).
    for (size_t c = 0; c < relation.conditions.size() && !sel.empty(); ++c) {
      const market::AttrCondition& cond = relation.conditions[c];
      size_t kept = 0;
      for (const uint32_t i : sel) {
        if (cond.Matches((*rows[i])[c])) sel[kept++] = i;
      }
      sel.resize(kept);
    }
    for (const sql::ResidualPredicate& pred : query.residuals) {
      if (pred.column.rel != rel) continue;
      if (sel.empty()) break;
      size_t kept = 0;
      for (const uint32_t i : sel) {
        if (EvalCompare((*rows[i])[pred.column.col], pred.op, pred.literal)) {
          sel[kept++] = i;
        }
      }
      sel.resize(kept);
    }
    // Columnar gather of the survivors.
    const size_t dst = out.num_rows();
    out.Grow(sel.size());
    for (size_t c = 0; c < out.num_columns(); ++c) {
      for (size_t i = 0; i < sel.size(); ++i) {
        out.At(dst + i, c) = (*rows[sel[i]])[c];
      }
    }
  }
  return out;
}

Result<storage::Table> EvaluateLocally(
    const sql::BoundQuery& query,
    const std::vector<storage::Table>& rel_tables) {
  const size_t n = query.relations.size();
  if (rel_tables.size() != n) {
    return Status::InvalidArgument("rel_tables arity mismatch");
  }

  // Filter each relation (block-vectorized), then join greedily: repeatedly
  // attach a relation connected to the joined set (hash join), falling back
  // to Cartesian for disconnected components. The whole pipeline stays
  // columnar until the final aggregate/sort; joined-schema offsets track
  // placement.
  std::vector<ColumnTable> filtered;
  filtered.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    filtered.push_back(
        FilterRelationColumns(query, i, RowRefs(rel_tables[i]),
                              rel_tables[i].schema().num_columns()));
  }

  std::vector<size_t> offsets(n, 0);
  std::vector<bool> done(n, false);
  ColumnTable current;  // starts as the unit table: zero columns, one row
  current.Grow(1);
  std::vector<storage::SchemaColumn> placed_cols;
  size_t placed_width = 0;

  for (size_t round = 0; round < n; ++round) {
    // Prefer a relation with a join edge into the placed set.
    size_t pick = n;
    for (size_t i = 0; i < n && pick == n; ++i) {
      if (done[i]) continue;
      if (round == 0) {
        pick = i;
        break;
      }
      for (const sql::JoinEdge& e : query.joins) {
        const size_t a = e.left.rel;
        const size_t b = e.right.rel;
        if ((a == i && done[b]) || (b == i && done[a])) {
          pick = i;
          break;
        }
      }
    }
    if (pick == n) {  // disconnected: take the first remaining (Cartesian)
      for (size_t i = 0; i < n; ++i) {
        if (!done[i]) {
          pick = i;
          break;
        }
      }
    }
    assert(pick < n);

    std::vector<std::pair<size_t, size_t>> keys;
    for (const sql::JoinEdge& e : query.joins) {
      const sql::BoundColumnRef& l = e.left;
      const sql::BoundColumnRef& r = e.right;
      if (l.rel == pick && done[r.rel]) {
        keys.emplace_back(ColumnPosition(query, offsets, r), l.col);
      } else if (r.rel == pick && done[l.rel]) {
        keys.emplace_back(ColumnPosition(query, offsets, l), r.col);
      }
    }
    current = keys.empty() ? BlockCartesian(current, filtered[pick])
                           : BlockHashJoin(current, filtered[pick], keys);
    offsets[pick] = placed_width;
    placed_width += filtered[pick].num_columns();
    for (const storage::SchemaColumn& col :
         rel_tables[pick].schema().columns()) {
      placed_cols.push_back(col);
    }
    done[pick] = true;
  }

  return EvaluateJoined(query, current, offsets, std::move(placed_cols));
}

Result<storage::Table> EvaluateJoined(
    const sql::BoundQuery& query, const ColumnTable& current,
    const std::vector<size_t>& offsets,
    std::vector<storage::SchemaColumn> placed_cols) {
  const size_t n = query.relations.size();

  // ---- SELECT / GROUP BY output.
  const auto position = [&](const sql::BoundColumnRef& ref) {
    return ColumnPosition(query, offsets, ref);
  };

  // Renames output columns to the select-list names/aliases (skipped for
  // SELECT *, whose expansion keeps the qualified source names) and applies
  // ORDER BY.
  const auto finalize = [&query](storage::Table table) -> storage::Table {
    const bool has_star =
        std::any_of(query.select.begin(), query.select.end(),
                    [](const sql::BoundSelectItem& item) {
                      return item.kind == sql::BoundSelectItem::Kind::kStar;
                    });
    if (!has_star && table.schema().num_columns() == query.select.size()) {
      std::vector<storage::SchemaColumn> cols = table.schema().columns();
      for (size_t s = 0; s < query.select.size(); ++s) {
        cols[s].name = query.select[s].output_name;
        cols[s].table.clear();
      }
      table = storage::Table(storage::Schema(std::move(cols)),
                             std::move(table.mutable_rows()));
    }
    if (query.order_by.empty()) return table;
    std::stable_sort(table.mutable_rows().begin(), table.mutable_rows().end(),
                     [&query](const Row& a, const Row& b) {
                       for (const sql::BoundOrderItem& key : query.order_by) {
                         const int cmp =
                             a[key.output_column].Compare(b[key.output_column]);
                         if (cmp != 0) return key.ascending ? cmp < 0 : cmp > 0;
                       }
                       return false;
                     });
    return table;
  };

  if (query.HasAggregates()) {
    // The aggregate sink reads only the grouped and aggregated columns:
    // `narrow` lists their joined-table positions (first use first), and
    // group keys and aggregate inputs index into it.
    std::vector<size_t> narrow;
    const auto narrow_index = [&narrow](size_t pos) {
      const auto it = std::find(narrow.begin(), narrow.end(), pos);
      if (it != narrow.end()) return static_cast<size_t>(it - narrow.begin());
      narrow.push_back(pos);
      return narrow.size() - 1;
    };
    std::vector<size_t> group_positions;
    std::vector<size_t> group_cols;
    for (const sql::BoundColumnRef& ref : query.group_by) {
      group_positions.push_back(position(ref));
      group_cols.push_back(narrow_index(group_positions.back()));
    }
    std::vector<storage::AggSpec> aggs;
    std::vector<size_t> select_to_output(query.select.size());
    for (size_t s = 0; s < query.select.size(); ++s) {
      const sql::BoundSelectItem& item = query.select[s];
      if (item.kind == sql::BoundSelectItem::Kind::kAggregate) {
        storage::AggSpec spec;
        spec.func = item.agg;
        spec.count_star = item.agg_star;
        if (!item.agg_star) spec.column = narrow_index(position(item.column));
        spec.output_name = item.output_name;
        select_to_output[s] = group_cols.size() + aggs.size();
        aggs.push_back(spec);
      } else if (item.kind == sql::BoundSelectItem::Kind::kColumn) {
        const size_t pos = position(item.column);
        size_t idx = group_positions.size();
        for (size_t g = 0; g < group_positions.size(); ++g) {
          if (group_positions[g] == pos) idx = g;
        }
        if (idx == group_positions.size()) {
          return Status::InvalidArgument("selected column '" +
                                         item.output_name +
                                         "' is not a grouping column");
        }
        select_to_output[s] = idx;
      } else {
        return Status::NotSupported("SELECT * cannot mix with aggregates");
      }
    }
    // The aggregate is the columnar pipeline's sink: group keys need whole
    // rows anyway, and the grouped output is small. Only the narrow columns
    // become rows.
    std::vector<storage::SchemaColumn> narrow_cols;
    narrow_cols.reserve(narrow.size());
    for (const size_t c : narrow) narrow_cols.push_back(placed_cols[c]);
    const storage::Table current_table(storage::Schema(std::move(narrow_cols)),
                                       RowsFromColumns(current, narrow));
    const storage::Table grouped =
        storage::GroupAggregate(current_table, group_cols, aggs);
    // Reorder to the SELECT-list order.
    return finalize(storage::Project(grouped, select_to_output));
  }

  // Plain projection. `SELECT *` expands to all columns of all relations in
  // FROM order.
  std::vector<size_t> out_cols;
  for (const sql::BoundSelectItem& item : query.select) {
    if (item.kind == sql::BoundSelectItem::Kind::kStar) {
      for (size_t rel = 0; rel < n; ++rel) {
        const size_t arity = query.relations[rel].def->columns.size();
        for (size_t c = 0; c < arity; ++c) {
          out_cols.push_back(offsets[rel] + c);
        }
      }
    } else {
      out_cols.push_back(position(item.column));
    }
  }
  // Project while turning columns into rows: rows materialize only for the
  // final result table.
  std::vector<storage::SchemaColumn> proj_cols;
  proj_cols.reserve(out_cols.size());
  for (const size_t c : out_cols) proj_cols.push_back(placed_cols[c]);
  return finalize(storage::Table(storage::Schema(std::move(proj_cols)),
                                 RowsFromColumns(current, out_cols)));
}

}  // namespace payless::exec
