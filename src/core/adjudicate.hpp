// Adjudication of a certificate flag.
//
// The §5.4 certificate (Theorem 2) that OnlineCertificateMonitor streams is
// SUFFICIENT, not necessary: a clean run is opaque prefix by prefix, but a
// flag only says that the certificate's candidate version order failed.
// Turning a flag into a proof needs every version order at once, which is
// what Definition 1 — check_opacity — decides. adjudicate() answers the
// question "is the flagged prefix h[0..pos] opaque?" in three steps:
//
//   (a) a flag whose kind breaks §5.4 consistency (proves_non_opaque) is
//       kNo outright, since Theorem 2 makes consistency necessary;
//   (b) the flagged transaction's reads-from closure — the smallest set of
//       transactions holding it and every writer of a value a member
//       reads — is projected out of the prefix and decided exactly; a
//       non-opaque projection proves the prefix non-opaque, however many
//       transactions the prefix holds (the argument is in adjudicate.cpp);
//   (c) otherwise the whole prefix goes to check_opacity.
//
// The projection is the reduction Armstrong, Dongol & Doherty use to take
// opacity to small sub-histories; it decides the common flagged histories
// without the exponential search over unrelated transactions.
#pragma once

#include <string>

#include "core/history.hpp"
#include "core/online.hpp"
#include "core/opacity.hpp"

namespace optm::core {

struct Adjudication {
  /// kNo: h[0..pos] is proven not opaque. kYes: h[0..pos] is opaque (the
  /// certificate was stricter than Definition 1). kUnknown: the budget ran
  /// out, the prefix holds more than 64 transactions, or it is not
  /// well-formed (Definition 1 assumes well-formed histories).
  Verdict verdict{Verdict::kUnknown};
  std::string reason;
  /// kNo: the history proven non-opaque (the prefix or the projection of
  /// step (b)). kYes: the legal sequential history Definition 1 asks for.
  /// kUnknown: empty.
  History witness;
};

/// Adjudicate `flag`, raised by a certificate monitor fed `h` (which holds
/// at least flag.pos + 1 events). `budget` bounds each check_opacity call.
/// Throws std::out_of_range when flag.pos is past the end of `h`.
[[nodiscard]] Adjudication adjudicate(const History& h,
                                      const OnlineViolation& flag,
                                      const OpacityOptions& budget = {});

}  // namespace optm::core
