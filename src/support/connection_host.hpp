// The connection host shared by the repo's newline-JSON daemons: the
// sweep-as-a-service server (core/serve.hpp) and the fabric coordinator
// (core/fabric.hpp) each register a line handler on one ConnectionHost and
// keep no socket code of their own.
//
// Concurrency and teardown contract:
//
//  * run() accepts on the endpoint bound by start(). Each accepted
//    connection gets its own handler thread and a dense session number
//    (0, 1, 2, ... in accept order), which the handler and the close hook
//    receive.
//  * At most `max_connections` connections are served at once. A
//    connection accepted while every slot is taken gets one
//    {"ok":false,"error":"busy"} line and is closed: an explicit reply to
//    back off and retry on, never a silent drop that looks like a crashed
//    daemon. Finished slots are joined and freed on the next accept.
//  * Per connection: read a line, call the handler, write Reply::line,
//    then keep reading, close or stop the host as Reply::after says.
//    Handlers run concurrently across connections; the front end
//    serialises its own state.
//  * When a connection ends, for whatever reason, the close hook runs with
//    its session number on the connection's own thread.
//  * request_stop() is async-signal-safe (an atomic store plus shutdown(2)
//    on the listening socket): a SIGTERM handler's one call. run() then
//    half-closes (SHUT_RD) every live connection, so blocked reads return
//    while replies already being written still flush, and joins every
//    handler.
//  * stop_accepting() only wakes the accept loop: live connections are not
//    half-closed, and run() joins their handlers as they end naturally.
//  * run() returns with every handler joined and the listener closed (a
//    Unix-domain socket file is unlinked).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "support/socket.hpp"

namespace avglocal::support {

class ConnectionHost {
 public:
  /// One handled request line.
  struct Reply {
    /// What the connection does once `line` is written.
    enum class After {
      kKeepOpen,  ///< read the next request line
      kClose,     ///< close this connection
      kStop,      ///< close this connection and request_stop() the host
    };
    std::string line;  ///< sent with a '\n' appended; an empty line sends nothing
    After after = After::kKeepOpen;
  };

  using Handler = std::function<Reply(std::uint64_t session, const std::string& line)>;
  using CloseHook = std::function<void(std::uint64_t session)>;

  ConnectionHost(std::size_t max_connections, Handler handler, CloseHook on_close = {});
  ConnectionHost(const ConnectionHost&) = delete;
  ConnectionHost& operator=(const ConnectionHost&) = delete;
  ~ConnectionHost();

  /// Binds and listens on `endpoint`. Throws std::runtime_error when it is
  /// unusable or already served. Separate from run() so callers can install
  /// signal handlers, and read the resolved endpoint, before accepting.
  void start(const Endpoint& endpoint);

  /// The bound endpoint, with TCP port 0 resolved to the real port.
  const Endpoint& endpoint() const noexcept { return listener_.endpoint(); }

  /// Accept loop; returns after request_stop() or stop_accepting(), with
  /// every handler joined.
  void run();

  /// Async-signal-safe stop: live connections are half-closed.
  void request_stop() noexcept;

  /// Stops accepting; live connections run to their natural end.
  void stop_accepting() noexcept;

  bool stopping() const noexcept { return stop_.load(std::memory_order_relaxed); }

 private:
  /// One connection's thread. `fd` is the live connection (-1 once its
  /// handler is finishing) and `done` flags the slot for reaping; both are
  /// guarded by slots_mutex_.
  struct Slot {
    std::thread thread;
    int fd = -1;
    bool done = false;
  };

  void serve(Stream stream, Slot* slot, std::uint64_t session);
  void reap_finished_slots_locked();
  void teardown();

  std::size_t max_connections_;
  Handler handler_;
  CloseHook on_close_;
  Listener listener_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> accepting_{true};

  std::mutex slots_mutex_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

/// {"ok":false,"error":message}, keeping the connection open.
ConnectionHost::Reply error_reply(std::string_view message);

}  // namespace avglocal::support
