// Buyer-side final query processing (Fig. 3, steps 6-8): once every
// relation's required tuples are available locally, the query is just a
// conventional select-join-aggregate evaluation. Shared by the execution
// engine, the Download-All baseline, and the reference oracle in tests.
#ifndef PAYLESS_EXEC_LOCAL_EVAL_H_
#define PAYLESS_EXEC_LOCAL_EVAL_H_

#include <vector>

#include "common/status.h"
#include "exec/block.h"
#include "sql/bound_query.h"
#include "storage/table.h"

namespace payless::exec {

/// Evaluates `query` over materialized relation contents. `rel_tables[i]`
/// holds (a superset of) the rows of relation i that satisfy the query; the
/// evaluator re-applies the relation's literal conditions and the residual
/// predicates, joins everything along the query's join edges (Cartesian
/// where disconnected), and produces the SELECT/GROUP BY output.
Result<storage::Table> EvaluateLocally(
    const sql::BoundQuery& query,
    const std::vector<storage::Table>& rel_tables);

/// Produces the SELECT / GROUP BY / ORDER BY output over an already-joined
/// columnar result. `current` is the join of every relation (filters and
/// residuals applied), `offsets[rel]` its relations' first column position,
/// `placed_cols` the concatenated schema in placement order. Lets the
/// execution engine finish its running bind join directly instead of
/// re-filtering and re-joining from scratch.
Result<storage::Table> EvaluateJoined(
    const sql::BoundQuery& query, const ColumnTable& current,
    const std::vector<size_t>& offsets,
    std::vector<storage::SchemaColumn> placed_cols);

/// Filters one relation's raw rows by its literal conditions and the
/// residual predicates that mention it.
storage::Table FilterRelation(const sql::BoundQuery& query, size_t rel,
                              const storage::Table& raw);

/// Block-vectorized form of FilterRelation over row references (each row
/// has `num_columns` values): evaluates one predicate column at a time
/// over a selection vector (block by block, compacting as it goes) and
/// gathers survivors columnar. Same rows, same order. The referenced rows
/// are only read; this is the one copy into the columnar pipeline.
ColumnTable FilterRelationColumns(const sql::BoundQuery& query, size_t rel,
                                  const std::vector<const Row*>& rows,
                                  size_t num_columns);

}  // namespace payless::exec

#endif  // PAYLESS_EXEC_LOCAL_EVAL_H_
