#include "core/stream_verify.hpp"

namespace optm::core {

StreamVerifyResult verify_event_stream(const ObjectModel& model,
                                       const EventPull& next,
                                       const StreamVerifyOptions& options) {
  OnlineCertificateMonitor monitor(model);
  if (options.reserve_txs != 0 || options.reserve_versions != 0) {
    monitor.reserve(options.reserve_txs, options.reserve_versions);
  }
  for (std::span<const Event> batch = next(); !batch.empty(); batch = next()) {
    (void)monitor.ingest(batch);
  }
  StreamVerifyResult out;
  out.certified = monitor.ok();
  out.violation = monitor.violation();
  out.events = monitor.events_fed();
  out.resident = monitor.resident();
  return out;
}

}  // namespace optm::core
