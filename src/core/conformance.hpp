// Cross-engine conformance driver — the differential-testing backbone of
// the window-free recording work.
//
// The repository judges one recorded history in two independent ways: the
// streaming OnlineCertificateMonitor, parameterized by a version-order
// policy (core/version_order.hpp), and the exact definitional checker
// check_opacity. A monitor flag is then adjudicated (core/adjudicate.hpp).
// The engines owe each other three contracts:
//
//   * soundness: a CERTIFIED verdict under any policy is a Theorem-2
//     certificate, so the exact checker must answer kYes;
//   * flag completeness: if the exact checker proves the history
//     non-opaque, no policy may certify it (a flag may still be
//     conservative — certificates are sufficient, not necessary);
//   * every monitor flag is adjudicated, and whenever check_opacity
//     decides the flagged prefix h[0..pos], the adjudication must be that
//     verdict (neither the contradicting one nor kUnknown).
//
// check_conformance runs every configured engine over one history and
// verifies all three, reporting the first divergence in plain text. It is
// the reusable core of the cross-runtime conformance fuzz suite
// (tests/core/conformance_fuzz_test.cpp), which feeds it recordings of
// live runtimes — windowed and window-free — plus the random_*_history
// generators; it is equally usable from tools (a recorded history that
// fails conformance is a checker bug by definition, whatever the verdict).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/history.hpp"
#include "core/online.hpp"
#include "core/opacity.hpp"
#include "core/version_order.hpp"

namespace optm::core {

struct ConformanceOptions {
  /// Policies to sweep (each runs the monitor; its flag is adjudicated).
  std::vector<VersionOrderPolicy> policies{
      VersionOrderPolicy::kCommitOrder, VersionOrderPolicy::kSnapshotRank,
      VersionOrderPolicy::kStampedRead};
  /// Run the exact definitional checker on the history, and on each
  /// flagged prefix, when it has at most this many transactions (0
  /// disables it — it is exponential).
  std::size_t exact_max_txs = 10;
  /// DFS state budget for the exact checker and for adjudication.
  std::uint64_t exact_max_states = 500'000;
};

/// One engine's view of the history under one policy.
struct EngineVerdict {
  bool certified{false};
  std::size_t pos{0};  // first condemned position (valid iff !certified)
  std::string reason;
  CertFlagKind kind{CertFlagKind::kNone};
};

struct PolicyConformance {
  VersionOrderPolicy policy{VersionOrderPolicy::kCommitOrder};
  EngineVerdict monitor;
  /// adjudicate() on the monitor's flag (kUnknown when certified).
  Verdict adjudication{Verdict::kUnknown};
};

struct ConformanceReport {
  /// Every contract held (certified ⟹ exact kYes, exact kNo ⟹ all flag,
  /// every adjudication equals the exact verdict of its prefix when that
  /// is decided).
  bool ok{true};
  /// Human-readable description of the first broken contract.
  std::string divergence;
  std::vector<PolicyConformance> policies;
  /// Exact checker's verdict (kUnknown when skipped or budget-exhausted).
  Verdict exact{Verdict::kUnknown};
  std::string exact_reason;
  /// Did the given policy certify the history (monitor side)?
  [[nodiscard]] bool certified(VersionOrderPolicy p) const noexcept {
    for (const PolicyConformance& pc : policies) {
      if (pc.policy == p) return pc.monitor.certified;
    }
    return false;
  }
};

/// Run every configured engine over `h` and check the contracts above.
/// Precondition (same as the certificate engines): all-register history;
/// throws std::invalid_argument otherwise.
[[nodiscard]] ConformanceReport check_conformance(
    const History& h, const ConformanceOptions& options = {});

}  // namespace optm::core
