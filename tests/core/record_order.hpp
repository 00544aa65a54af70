// The record-order view of a stamped history: the same events with every
// stamp and read version cleared. The certificate monitor ranks unstamped
// commits next in record order and skips the per-read stamp checks, so on
// this copy it certifies against the commit (record) order, flag for flag
// — the order that drifted window-free and MV recordings falsely fail. Tests use it to
// reach the false flags the §3.6 reorder search and adjudicate() repair.
#pragma once

#include "core/history.hpp"

namespace optm::core {

[[nodiscard]] inline History record_order(const History& h) {
  History out(h.model());
  for (Event e : h.events()) {
    e.stamp = 0;
    e.ver = 0;
    out.append(e);
  }
  return out;
}

}  // namespace optm::core
