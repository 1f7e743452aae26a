#include "src/fuzz/engine.h"

namespace nearpm {
namespace fuzz {

const char* FailureKindName(FailureKind kind) {
  switch (kind) {
    case FailureKind::kNone:
      return "none";
    case FailureKind::kHarness:
      return "harness";
    case FailureKind::kRecoverError:
      return "recover_error";
    case FailureKind::kStateMismatch:
      return "state_mismatch";
    case FailureKind::kUncommittedDurable:
      return "uncommitted_durable";
    case FailureKind::kPostRecoveryMismatch:
      return "post_recovery_mismatch";
    case FailureKind::kPpoViolation:
      return "ppo_violation";
    case FailureKind::kLostCommitted:
      return "lost_committed";
    case FailureKind::kTornWrite:
      return "torn_write";
    case FailureKind::kTornTxn:
      return "torn_txn";
    case FailureKind::kFailoverError:
      return "failover_error";
    case FailureKind::kDivergentReplica:
      return "divergent_replica";
    case FailureKind::kDoorbellHazard:
      return "doorbell_hazard";
  }
  return "unknown";
}

CaseResult Fail(FailureKind kind, std::string detail) {
  CaseResult result;
  result.failure = kind;
  result.detail = std::move(detail);
  return result;
}

}  // namespace fuzz
}  // namespace nearpm
