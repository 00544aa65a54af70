#include "core/conformance.hpp"

#include <span>
#include <utility>

#include "core/adjudicate.hpp"

namespace optm::core {
namespace {

[[nodiscard]] EngineVerdict monitor_verdict(const History& h) {
  OnlineCertificateMonitor m(h.model());
  for (const Event& e : h.events()) (void)m.feed(e);
  EngineVerdict v;
  v.certified = m.ok();
  if (!v.certified) {
    v.pos = m.violation()->pos;
    v.reason = m.violation()->reason;
    v.kind = m.violation()->kind;
  }
  return v;
}

[[nodiscard]] std::string describe(const EngineVerdict& v) {
  if (v.certified) return "certified";
  return "flagged at " + std::to_string(v.pos) + " (" + v.reason + ")";
}

}  // namespace

ConformanceReport check_conformance(const History& h,
                                    const ConformanceOptions& options) {
  ConformanceReport report;
  OpacityOptions opts;
  opts.max_states = options.exact_max_states;

  const auto diverge = [&report](std::string what) {
    if (report.ok) {
      report.ok = false;
      report.divergence = std::move(what);
    }
  };

  // check_opacity on h[0..pos]; kUnknown when the prefix is too large,
  // not well-formed or over budget.
  const auto exact_prefix = [&](std::size_t pos) {
    const History prefix = History::from_batch(
        h.model(), std::span<const Event>(h.events().data(), pos + 1));
    if (options.exact_max_txs == 0 ||
        prefix.transactions().size() > options.exact_max_txs ||
        !prefix.well_formed()) {
      return Verdict::kUnknown;
    }
    return check_opacity(prefix, opts).verdict;
  };

  report.monitor = monitor_verdict(h);
  const EngineVerdict& monitor = report.monitor;
  if (!monitor.certified) {
    const Adjudication a = adjudicate(
        h, OnlineViolation{monitor.pos, monitor.reason, monitor.kind}, opts);
    report.adjudication = a.verdict;
    const Verdict exact = exact_prefix(monitor.pos);
    if (exact != Verdict::kUnknown && a.verdict != exact) {
      diverge("adjudication disagrees with the exact checker on the flagged "
              "prefix: " + describe(monitor) + " adjudicated " +
              to_string(a.verdict) + " (" + a.reason + "), exact " +
              to_string(exact));
    }
  }

  std::string why;
  if (options.exact_max_txs > 0 &&
      h.transactions().size() <= options.exact_max_txs &&
      h.well_formed(&why)) {  // check_opacity's precondition
    const OpacityResult exact = check_opacity(h, opts);
    report.exact = exact.verdict;
    report.exact_reason = exact.reason;

    if (monitor.certified && exact.verdict == Verdict::kNo) {
      // A certified non-opaque history would be a Theorem-2 soundness
      // bug — the one divergence that must never happen.
      diverge("SOUNDNESS: the monitor certified a history the exact checker "
              "proves non-opaque (" + exact.reason + ")");
    }
    if (!monitor.certified && exact.verdict == Verdict::kYes &&
        monitor.kind == CertFlagKind::kNotWellFormed) {
      // Well-formedness is decided, not certified: the exact checker
      // front-ends the same §4 state machine, so a well-formedness flag
      // on an exactly-opaque history means the engines disagree on §4.
      diverge("well-formedness flag on a history the exact checker "
              "accepts: " + monitor.reason);
    }
  }

  return report;
}

}  // namespace optm::core
