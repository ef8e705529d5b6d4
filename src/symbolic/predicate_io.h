#ifndef EVA_SYMBOLIC_PREDICATE_IO_H_
#define EVA_SYMBOLIC_PREDICATE_IO_H_

#include <string>

#include "common/status.h"
#include "symbolic/predicate.h"

namespace eva::symbolic {

/// Serializes a predicate to one line of space-separated tokens, suitable
/// for embedding in the lifecycle file and the WAL's coverage records.
/// Dimension names and categorical values are PercentEscape'd so
/// arbitrary UDF signature keys round-trip. The encoding is lossless for
/// every constraint the algebra can produce (interval minus excluded
/// points, categorical include/exclude sets).
std::string EncodePredicate(const Predicate& p);

/// Inverse of EncodePredicate. Fails with InvalidArgument on malformed
/// input. DecodePredicate(EncodePredicate(p)) is semantically identical to
/// p (same conjuncts, same constraints).
Result<Predicate> DecodePredicate(const std::string& text);

}  // namespace eva::symbolic

#endif  // EVA_SYMBOLIC_PREDICATE_IO_H_
