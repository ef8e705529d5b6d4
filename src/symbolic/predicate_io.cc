#include "symbolic/predicate_io.h"

#include <algorithm>
#include <sstream>

#include "common/num_parse.h"
#include "common/string_util.h"

namespace eva::symbolic {

namespace {

void EncodeBound(std::ostringstream& os, const Bound& b) {
  if (b.infinite) {
    os << " inf";
  } else {
    os << ' ' << (b.closed ? 'c' : 'o') << ':' << b.value;
  }
}

bool DecodeBound(std::istringstream& is, Bound* b) {
  std::string tok;
  if (!(is >> tok)) return false;
  if (tok == "inf") {
    *b = Bound::Infinite();
    return true;
  }
  double v = 0;
  if (tok.size() < 3 || tok[1] != ':' || !ParseDouble(tok.substr(2), &v)) {
    return false;
  }
  if (tok[0] == 'c') {
    *b = Bound::Closed(v);
  } else if (tok[0] == 'o') {
    *b = Bound::Open(v);
  } else {
    return false;
  }
  return true;
}

}  // namespace

std::string EncodePredicate(const Predicate& p) {
  std::ostringstream os;
  os.precision(17);
  os << "P " << p.conjuncts().size();
  for (const Conjunct& c : p.conjuncts()) {
    os << " C " << c.dims().size();
    for (const auto& [dim, dc] : c.dims()) {
      os << ' ' << PercentEscape(dim) << ' ' << static_cast<int>(dc.kind());
      if (dc.is_categorical()) {
        os << ' ' << (dc.categorical_exclude() ? "Ce" : "Ci") << ' '
           << dc.categorical_values().size();
        for (const std::string& v : dc.categorical_values()) {
          os << ' ' << PercentEscape(v);
        }
      } else {
        os << " N";
        EncodeBound(os, dc.interval().lo());
        EncodeBound(os, dc.interval().hi());
        os << ' ' << dc.excluded_points().size();
        for (double pt : dc.excluded_points()) os << ' ' << pt;
      }
    }
  }
  return os.str();
}

Result<Predicate> DecodePredicate(const std::string& text) {
  std::istringstream is(text);
  std::string tok;
  size_t nconj = 0;
  if (!(is >> tok) || tok != "P" || !(is >> nconj)) {
    return Status::InvalidArgument("predicate: expected 'P <n>' header");
  }
  Predicate p;
  for (size_t ci = 0; ci < nconj; ++ci) {
    size_t ndims = 0;
    if (!(is >> tok) || tok != "C" || !(is >> ndims)) {
      return Status::InvalidArgument("predicate: expected 'C <n>' conjunct");
    }
    Conjunct c;
    for (size_t di = 0; di < ndims; ++di) {
      std::string dim_tok;
      int kind_int = 0;
      if (!(is >> dim_tok >> kind_int)) {
        return Status::InvalidArgument("predicate: truncated dimension");
      }
      EVA_ASSIGN_OR_RETURN(std::string dim, PercentUnescape(dim_tok));
      if (kind_int < 0 || kind_int > static_cast<int>(DimKind::kCategorical)) {
        return Status::InvalidArgument("predicate: bad dimension kind " +
                                       std::to_string(kind_int));
      }
      auto kind = static_cast<DimKind>(kind_int);
      std::string payload;
      if (!(is >> payload)) {
        return Status::InvalidArgument("predicate: missing payload tag");
      }
      if (payload == "N") {
        Bound lo, hi;
        size_t nexcl = 0;
        if (!DecodeBound(is, &lo) || !DecodeBound(is, &hi) || !(is >> nexcl)) {
          return Status::InvalidArgument("predicate: bad numeric payload");
        }
        DimConstraint dc = DimConstraint::Numeric(kind, Interval(lo, hi));
        for (size_t i = 0; i < nexcl; ++i) {
          std::string pt_tok;
          double pt = 0;
          if (!(is >> pt_tok) || !ParseDouble(pt_tok, &pt)) {
            return Status::InvalidArgument("predicate: bad excluded point");
          }
          dc = dc.Intersect(DimConstraint::NumericNotEqual(kind, pt));
        }
        if (!c.Constrain(dim, dc)) {
          return Status::InvalidArgument(
              "predicate: unsatisfiable stored conjunct");
        }
      } else if (payload == "Ci" || payload == "Ce") {
        size_t nvals = 0;
        if (!(is >> nvals)) {
          return Status::InvalidArgument("predicate: bad categorical count");
        }
        std::vector<std::string> values;
        // A hostile count must not drive a huge allocation before the
        // stream runs dry; push_back grows past the cap fine.
        values.reserve(std::min<size_t>(nvals, 1024));
        for (size_t i = 0; i < nvals; ++i) {
          std::string v;
          if (!(is >> v)) {
            return Status::InvalidArgument("predicate: bad categorical value");
          }
          EVA_ASSIGN_OR_RETURN(std::string value, PercentUnescape(v));
          values.push_back(std::move(value));
        }
        if (!c.Constrain(dim,
                         DimConstraint::Categorical(std::move(values),
                                                    payload == "Ce"))) {
          return Status::InvalidArgument(
              "predicate: unsatisfiable stored conjunct");
        }
      } else {
        return Status::InvalidArgument("predicate: unknown payload tag '" +
                                       payload + "'");
      }
    }
    p.AddConjunct(std::move(c));
  }
  return p;
}

}  // namespace eva::symbolic
