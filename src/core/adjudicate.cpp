#include "core/adjudicate.hpp"

#include <map>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/version_order.hpp"

namespace optm::core {
namespace {

/// The transactions of `h` closed under reads-from from `seed`: every
/// transaction that writes a value some member reads joins, up to a
/// fixpoint. nullopt when `h` holds an operation other than a register
/// read or write (reads-from by value is then undefined).
[[nodiscard]] std::optional<std::set<TxId>> reads_from_closure(const History& h,
                                                               TxId seed) {
  std::map<std::pair<ObjId, Value>, std::vector<TxId>> writers;
  std::map<TxId, std::vector<std::pair<ObjId, Value>>> reads;
  for (const Event& e : h.events()) {
    if (e.kind != EventKind::kInvoke && e.kind != EventKind::kResponse) continue;
    if (e.op == OpCode::kWrite && e.kind == EventKind::kInvoke) {
      writers[{e.obj, e.arg}].push_back(e.tx);
    } else if (e.op == OpCode::kRead && e.kind == EventKind::kResponse) {
      reads[e.tx].emplace_back(e.obj, e.ret);
    } else if (e.op != OpCode::kRead && e.op != OpCode::kWrite) {
      return std::nullopt;
    }
  }
  std::set<TxId> members{seed};
  std::vector<TxId> todo{seed};
  while (!todo.empty()) {
    const TxId tx = todo.back();
    todo.pop_back();
    for (const auto& read : reads[tx]) {
      for (const TxId w : writers[read]) {
        if (members.insert(w).second) todo.push_back(w);
      }
    }
  }
  return members;
}

}  // namespace

Adjudication adjudicate(const History& h, const OnlineViolation& flag,
                        const OpacityOptions& budget) {
  if (flag.pos >= h.size()) {
    throw std::out_of_range("adjudicate: flag position past the history");
  }
  History prefix = History::from_batch(
      h.model(), std::span<const Event>(h.events().data(), flag.pos + 1));

  // (a) §5.4 consistency is necessary for opacity (Theorem 2).
  if (proves_non_opaque(flag.kind)) {
    return {Verdict::kNo,
            std::string("flag kind ") + to_string(flag.kind) +
                " violates consistency (Theorem 2 makes it necessary; no "
                "search needed)",
            std::move(prefix)};
  }
  std::string why;
  if (!prefix.well_formed(&why)) {
    return {Verdict::kUnknown,
            "prefix not well-formed (Definition 1 assumes it): " + why, {}};
  }

  // (b) Soundness. Let X be the closure and P the projection of the
  // prefix onto X's events. Suppose the prefix is opaque: some sequential
  // S, equivalent to a completion of it, preserves ≺_H and makes every
  // transaction legal. Restrict S to X. It is equivalent to a completion
  // of P (each member keeps all its events and its completion), and it
  // preserves ≺_P, which is ≺_H on X because P keeps every event of each
  // member in order. A member's read of register r returning v is legal in
  // S: the last write to r among the committed transactions before it
  // (and its own) wrote v, or there is none and v is r's initial value.
  // Every writer of v to r is in X, so restricting removes only writes
  // that were not that last one, and the read stays legal. So P is
  // opaque. Contrapositive: a non-opaque P proves the prefix non-opaque
  // — in a value-unique history and, since all writers of v join, in any
  // register history. An opaque P proves nothing (the transactions left
  // out may be what breaks the prefix), which is why (c) follows.
  //
  // A closure of every transaction is the prefix itself: (c) decides it.
  const std::size_t num_txs = prefix.transactions().size();
  const TxId flagged = h.events()[flag.pos].tx;
  if (const auto members = reads_from_closure(prefix, flagged);
      members.has_value() && members->size() < num_txs &&
      members->size() <= 64) {
    History projection(h.model());
    for (const Event& e : prefix.events()) {
      if (members->count(e.tx) != 0) projection.append(e);
    }
    const OpacityResult exact = check_opacity(projection, budget);
    if (exact.verdict == Verdict::kNo) {
      return {Verdict::kNo,
              "the reads-from closure of T" + std::to_string(flagged) + " (" +
                  std::to_string(members->size()) +
                  " transactions) is not opaque: " + exact.reason,
              std::move(projection)};
    }
  }

  // (c) Definition 1 on the whole prefix.
  if (num_txs > 64) {
    return {Verdict::kUnknown,
            "prefix has " + std::to_string(num_txs) +
                " transactions (the exact checker takes at most 64)",
            {}};
  }
  const OpacityResult exact = check_opacity(prefix, budget);
  switch (exact.verdict) {
    case Verdict::kYes:
      return {Verdict::kYes,
              "prefix is opaque: the flag was stricter than Definition 1",
              witness_history(prefix, *exact.witness)};
    case Verdict::kNo:
      return {Verdict::kNo, "prefix not opaque: " + exact.reason,
              std::move(prefix)};
    case Verdict::kUnknown:
      break;
  }
  return {Verdict::kUnknown, exact.reason, {}};
}

}  // namespace optm::core
