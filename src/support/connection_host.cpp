#include "support/connection_host.hpp"

#include <sys/socket.h>

#include <utility>

#include "support/assert.hpp"
#include "support/json_writer.hpp"

namespace avglocal::support {

ConnectionHost::Reply error_reply(std::string_view message) {
  JsonWriter json;
  json.begin_object();
  json.key("ok").value(false);
  json.key("error").value(message);
  json.end_object();
  return ConnectionHost::Reply{json.str()};
}

ConnectionHost::ConnectionHost(std::size_t max_connections, Handler handler, CloseHook on_close)
    : max_connections_(max_connections),
      handler_(std::move(handler)),
      on_close_(std::move(on_close)) {
  AVGLOCAL_EXPECTS_MSG(max_connections_ >= 1, "a connection host needs at least one slot");
}

ConnectionHost::~ConnectionHost() {
  // run() normally joins everything; this covers a host destroyed without
  // run() reaching its teardown.
  request_stop();
  teardown();
}

void ConnectionHost::start(const Endpoint& endpoint) { listener_ = Listener::bind(endpoint); }

void ConnectionHost::request_stop() noexcept {
  // Called from SIGTERM/SIGINT handlers: only the atomic store and
  // shutdown(2) below are async-signal-safe, so nothing else happens here.
  stop_.store(true, std::memory_order_relaxed);
  listener_.interrupt();
}

void ConnectionHost::stop_accepting() noexcept {
  accepting_.store(false, std::memory_order_relaxed);
  listener_.interrupt();
}

void ConnectionHost::serve(Stream stream, Slot* slot, std::uint64_t session) {
  std::string line;
  while (!stopping() && stream.read_line(line)) {
    const Reply reply = handler_(session, line);
    if (!reply.line.empty() && !stream.write_line(reply.line)) break;
    if (reply.after == Reply::After::kStop) request_stop();
    if (reply.after != Reply::After::kKeepOpen) break;
  }
  if (on_close_) on_close_(session);
  // Clearing the fd under the lock before `stream` closes it keeps
  // teardown from half-closing a descriptor number the kernel has reused.
  const std::lock_guard<std::mutex> lock(slots_mutex_);
  slot->fd = -1;
  slot->done = true;
}

void ConnectionHost::reap_finished_slots_locked() {
  std::erase_if(slots_, [](const std::unique_ptr<Slot>& slot) {
    if (slot->done) slot->thread.join();  // a done handler no longer touches its slot
    return slot->done;
  });
}

void ConnectionHost::run() {
  AVGLOCAL_EXPECTS_MSG(listener_.valid(), "ConnectionHost::run called before start()");
  const auto running = [this] {
    return !stopping() && accepting_.load(std::memory_order_relaxed);
  };
  std::uint64_t next_session = 0;
  while (running()) {
    Stream stream = listener_.accept_client();
    if (!running()) break;
    if (!stream.valid()) continue;  // interrupted accept; loop re-checks the flags

    std::unique_lock<std::mutex> lock(slots_mutex_);
    reap_finished_slots_locked();
    if (slots_.size() >= max_connections_) {
      lock.unlock();
      stream.write_line(error_reply("busy").line);
      continue;
    }
    auto slot = std::make_unique<Slot>();
    Slot* raw = slot.get();
    raw->fd = stream.fd();
    const std::uint64_t session = next_session++;
    raw->thread = std::thread([this, raw, session, s = std::move(stream)]() mutable {
      serve(std::move(s), raw, session);
    });
    slots_.push_back(std::move(slot));
  }
  teardown();
}

void ConnectionHost::teardown() {
  std::vector<std::unique_ptr<Slot>> slots;
  {
    const std::lock_guard<std::mutex> lock(slots_mutex_);
    if (stopping()) {
      for (const auto& slot : slots_) {
        if (slot->fd >= 0) ::shutdown(slot->fd, SHUT_RD);
      }
    }
    slots.swap(slots_);
  }
  // Joined without the lock: finishing handlers take it to clear their slot.
  for (const auto& slot : slots) {
    if (slot->thread.joinable()) slot->thread.join();
  }
  listener_.close();
}

}  // namespace avglocal::support
