// The server's aggregate metric set, resolved once from the global
// MetricsRegistry (the per-session view lives in sys.sessions, which
// would explode the series space as labels). These are direct metric
// holders, not routed through the EngineMetrics enable tap: server
// accounting is part of the protocol contract (shed counts back the
// RESOURCE_EXHAUSTED frames), so it records even when engine metrics
// are disabled. Every series here has a catalog row in
// docs/operations.md.
#ifndef FUZZYDB_SERVER_SERVER_METRICS_H_
#define FUZZYDB_SERVER_SERVER_METRICS_H_

#include "obs/metrics.h"

namespace fuzzydb {
namespace server {

struct ServerMetrics {
  Counter* connections_total;    // fuzzydb_server_connections_total
  Counter* connections_refused;  // fuzzydb_server_connections_refused_total
  Gauge* sessions_active;        // fuzzydb_server_sessions_active
  Counter* requests_total;       // fuzzydb_server_requests_total
  Counter* errors_total;         // fuzzydb_server_errors_total
  Counter* shed_total;           // fuzzydb_server_shed_total
  Gauge* queue_depth;            // fuzzydb_server_queue_depth
  Counter* queue_wait_seconds;   // fuzzydb_server_queue_wait_seconds_total
  Histogram* queue_wait_us;      // fuzzydb_server_queue_wait_us

  /// Always non-null; registers the series on first use.
  static ServerMetrics* Instance();
};

}  // namespace server
}  // namespace fuzzydb

#endif  // FUZZYDB_SERVER_SERVER_METRICS_H_
