// Sweep-as-a-service: a resident daemon over core::ResultCache.
//
// The server listens on a Unix-domain stream socket and speaks
// newline-delimited JSON - one request object per line, one response
// object per line, in order, per connection. Ops:
//
//   {"op":"ping"}                     -> {"ok":true,"op":"ping"}
//   {"op":"stats"}                    -> {"ok":true,"op":"stats", ...counters}
//   {"op":"shutdown"}                 -> {"ok":true,"op":"shutdown"}, then stop
//   {"op":"sweep","scenario":{...}}   -> {"ok":true,"op":"sweep",
//                                         "key":"<cache key>","warm":bool,
//                                         "trials_computed":N,
//                                         "report":"<full report document>"}
//
// The scenario block is exactly the canonical block sweep reports embed
// (core/scenario.hpp), and the returned report string is byte-identical to
// what `avglocal_cli sweep --json` writes for the same spec - CI compares
// them with cmp. Any malformed line or failed request yields
// {"ok":false,"error":"..."} and the connection stays open.
//
// Connections, the busy reply and shutdown follow the connection host's
// contract (support/connection_host.hpp), with ServeOptions::max_clients
// slots; every handler funnels into the shared ResultCache, which
// serialises sweeps internally.
#pragma once

#include <string>

#include "core/result_cache.hpp"
#include "support/connection_host.hpp"

namespace avglocal::core {

struct ServeOptions {
  std::string socket_path;
  /// ResultCacheOptions::threads for the shared sweep pool.
  std::size_t threads = 0;
  /// ResultCacheOptions::batch_size for cache-run sweeps.
  std::size_t batch_size = 0;
  /// Concurrent connections served at once; a connection beyond this gets
  /// a {"ok":false,"error":"busy"} reply and is closed.
  std::size_t max_clients = 16;
};

class Server {
 public:
  using Reply = support::ConnectionHost::Reply;

  explicit Server(const ServeOptions& options);
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens on options.socket_path. Throws std::runtime_error
  /// when the path is unusable or already served. Separate from run() so
  /// callers can install signal handlers between "the socket exists" and
  /// "requests are being accepted".
  void start();

  /// Accept loop; returns only after a stop request, with every handler
  /// joined and the socket file unlinked.
  void run() { host_.run(); }

  /// Requests shutdown. Async-signal-safe - this is the SIGTERM handler's
  /// one call.
  void request_stop() noexcept { host_.request_stop(); }

  bool stopping() const noexcept { return host_.stopping(); }

  ResultCache& cache() noexcept { return cache_; }
  support::ConnectionHost& host() noexcept { return host_; }

  /// Parses and executes one request line and builds the response line; a
  /// shutdown op's reply stops the server once sent. Never throws:
  /// malformed input becomes an {"ok":false,...} reply. Public so protocol
  /// tests can drive it without a socket.
  Reply handle_request(const std::string& line);

 private:
  ServeOptions options_;
  ResultCache cache_;
  support::ConnectionHost host_;  ///< last: its handlers use the members above
};

}  // namespace avglocal::core
