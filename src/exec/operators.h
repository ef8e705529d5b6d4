#ifndef EVA_EXEC_OPERATORS_H_
#define EVA_EXEC_OPERATORS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/row.h"
#include "common/status.h"
#include "exec/exec_context.h"
#include "expr/expr.h"
#include "plan/plan.h"

namespace eva::exec {

/// Pull-based batch operator. Next() returns an empty batch at end of
/// stream; operators never emit empty intermediate batches.
class Operator {
 public:
  Operator(ExecContext* ctx, Schema output_schema)
      : ctx_(ctx), output_schema_(std::move(output_schema)) {}
  virtual ~Operator() = default;

  virtual Result<Batch> Next() = 0;
  const Schema& output_schema() const { return output_schema_; }

 protected:
  ExecContext* ctx_;
  Schema output_schema_;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Factory: instantiates the operator tree for a physical plan.
Result<OperatorPtr> BuildOperator(const plan::PlanNodePtr& node,
                                  ExecContext* ctx);

/// Convenience driver: builds the operator tree and drains it into a
/// single result batch, updating ctx->metrics->rows_out.
Result<Batch> ExecutePlan(const plan::PlanNodePtr& plan, ExecContext* ctx);

/// Busy-waits for `us` microseconds of host wall time; no-op for us <= 0.
/// UDF runners call it per fresh invocation with ExecContext::udf_spin_us
/// so tests can give simulated UDF calls real wall time.
void SpinFor(double us);

}  // namespace eva::exec

#endif  // EVA_EXEC_OPERATORS_H_
