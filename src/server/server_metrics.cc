#include "server/server_metrics.h"

namespace fuzzydb {
namespace server {

ServerMetrics* ServerMetrics::Instance() {
  static ServerMetrics* metrics = [] {
    auto* m = new ServerMetrics();
    MetricsRegistry& reg = MetricsRegistry::Global();
    m->connections_total =
        reg.GetCounter("fuzzydb_server_connections_total");
    m->connections_refused =
        reg.GetCounter("fuzzydb_server_connections_refused_total");
    m->sessions_active = reg.GetGauge("fuzzydb_server_sessions_active");
    m->requests_total = reg.GetCounter("fuzzydb_server_requests_total");
    m->errors_total = reg.GetCounter("fuzzydb_server_errors_total");
    m->shed_total = reg.GetCounter("fuzzydb_server_shed_total");
    m->queue_depth = reg.GetGauge("fuzzydb_server_queue_depth");
    m->queue_wait_seconds =
        reg.GetTimeCounter("fuzzydb_server_queue_wait_seconds_total");
    m->queue_wait_us = reg.GetHistogram("fuzzydb_server_queue_wait_us");
    return m;
  }();
  return metrics;
}

}  // namespace server
}  // namespace fuzzydb
