#include "iql/prepared_query.h"

#include <sstream>

#include "iql/dataspace.h"
#include "iql/query_footprint.h"

namespace idm::iql {

Result<QueryResult> PreparedQuery::Execute(const QueryOptions& options) const {
  if (!valid()) {
    return Status::FailedPrecondition("empty PreparedQuery");
  }
  return dataspace_->Execute(*this, options);
}

std::string PreparedQuery::Explain() const {
  if (!valid()) return "(empty prepared query)\n";
  std::ostringstream os;
  os << "query: " << plan_->normalized << "\n";
  os << "key: " << plan_->cache_key << "\n";
  os << "fingerprint: " << std::hex << std::showbase << plan_->fingerprint
     << std::dec << std::noshowbase << "\n";
  os << ExplainProgram(*plan_);
  return os.str();
}

sub::Footprint PreparedQuery::Footprint() const {
  if (!valid()) return {};
  return ComputeFootprint(*query_, dataspace_->module());
}

}  // namespace idm::iql
