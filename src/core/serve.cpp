#include "core/serve.hpp"

#include <sys/socket.h>

#include <exception>
#include <utility>

#include "support/assert.hpp"
#include "support/json_reader.hpp"
#include "support/json_writer.hpp"

namespace avglocal::core {

namespace {

std::string error_reply(const std::string& message) {
  support::JsonWriter json;
  json.begin_object();
  json.key("ok").value(false);
  json.key("error").value(message);
  json.end_object();
  return json.str();
}

}  // namespace

Server::Server(const ServeOptions& options)
    : options_(options), cache_(ResultCacheOptions{options.threads, options.batch_size}) {
  AVGLOCAL_EXPECTS_MSG(options_.max_clients >= 1, "serve needs at least one client slot");
}

Server::~Server() {
  // Normal lifecycle joins everything inside run(); this only covers a
  // server destroyed between start() and run().
  request_stop();
  for (const auto& slot : slots_) {
    const int fd = slot->fd.load(std::memory_order_relaxed);
    if (fd >= 0) ::shutdown(fd, SHUT_RD);
  }
  for (const auto& slot : slots_) {
    if (slot->thread.joinable()) slot->thread.join();
  }
}

void Server::start() { listener_ = support::Listener::bind(options_.socket_path); }

void Server::request_stop() noexcept {
  // Called from SIGTERM/SIGINT handlers: only the atomic store and
  // shutdown(2) below are async-signal-safe, so nothing else happens here.
  stop_.store(true, std::memory_order_relaxed);
  listener_.interrupt();
}

Server::Reply Server::handle_request(const std::string& line) {
  Reply reply;
  try {
    const support::JsonValue request = support::parse_json(line);
    const std::string& op = request.at("op").as_string();
    support::JsonWriter json;
    if (op == "ping") {
      json.begin_object();
      json.key("ok").value(true);
      json.key("op").value("ping");
      json.end_object();
    } else if (op == "stats") {
      const ResultCacheStats stats = cache_.stats();
      json.begin_object();
      json.key("ok").value(true);
      json.key("op").value("stats");
      json.key("requests").value(stats.requests);
      json.key("full_hits").value(stats.full_hits);
      json.key("extensions").value(stats.extensions);
      json.key("misses").value(stats.misses);
      json.key("trials_computed").value(stats.trials_computed);
      json.key("entries").value(stats.entries);
      json.end_object();
    } else if (op == "shutdown") {
      json.begin_object();
      json.key("ok").value(true);
      json.key("op").value("shutdown");
      json.end_object();
      reply.shutdown = true;
    } else if (op == "sweep") {
      const ScenarioSpec spec = scenario_from_json(request.at("scenario"));
      const ResultCacheOutcome outcome = cache_.sweep(spec);
      json.begin_object();
      json.key("ok").value(true);
      json.key("op").value("sweep");
      json.key("key").value(outcome.key);
      json.key("warm").value(outcome.warm);
      json.key("trials_computed").value(outcome.trials_computed);
      // The full report document rides along as one (escaped) string
      // value; the client writes it back out verbatim, so the file it
      // saves is byte-identical to a one-shot `sweep --json` run's.
      json.key("report").value(outcome.report);
      json.end_object();
    } else {
      reply.line = error_reply("unknown op '" + op + "'");
      return reply;
    }
    reply.line = json.str();
  } catch (const std::exception& error) {
    reply.line = error_reply(error.what());
    reply.shutdown = false;
  }
  return reply;
}

void Server::serve_connection(support::Stream stream, ClientSlot* slot) {
  std::string line;
  while (!stopping() && stream.read_line(line)) {
    const Reply reply = handle_request(line);
    if (!stream.write_line(reply.line)) break;
    if (reply.shutdown) {
      request_stop();
      break;
    }
  }
  slot->fd.store(-1, std::memory_order_relaxed);
  slot->done.store(true, std::memory_order_release);
}

void Server::reap_finished_slots_locked() {
  for (std::size_t index = 0; index < slots_.size();) {
    if (slots_[index]->done.load(std::memory_order_acquire)) {
      if (slots_[index]->thread.joinable()) slots_[index]->thread.join();
      slots_.erase(slots_.begin() + static_cast<std::ptrdiff_t>(index));
    } else {
      ++index;
    }
  }
}

void Server::run() {
  AVGLOCAL_EXPECTS_MSG(listener_.valid(), "Server::run called before start()");
  while (!stopping()) {
    support::Stream stream = listener_.accept_client();
    if (stopping()) break;
    if (!stream.valid()) continue;  // interrupted accept; loop re-checks stop

    std::unique_lock<std::mutex> lock(slots_mutex_);
    reap_finished_slots_locked();
    if (slots_.size() >= options_.max_clients) {
      // Every slot is taken. Tell the client so instead of dropping the
      // connection on the floor: an explicit busy line lets it back off
      // and retry, where a silent close is indistinguishable from a
      // crashed daemon.
      lock.unlock();
      stream.write_line(error_reply("busy"));
      continue;
    }

    auto slot = std::make_unique<ClientSlot>();
    ClientSlot* raw = slot.get();
    raw->fd.store(stream.fd(), std::memory_order_relaxed);
    raw->thread = std::thread(
        [this, raw, s = std::move(stream)]() mutable { serve_connection(std::move(s), raw); });
    slots_.push_back(std::move(slot));
  }

  // Half-close every live connection's read side: blocked read_line calls
  // return, responses already being written still flush.
  {
    const std::lock_guard<std::mutex> lock(slots_mutex_);
    for (const auto& slot : slots_) {
      const int fd = slot->fd.load(std::memory_order_relaxed);
      if (fd >= 0) ::shutdown(fd, SHUT_RD);
    }
  }
  // The accept loop is done, so nobody resizes slots_ anymore; handlers
  // only flip their own flags. Join without the lock (handlers take it on
  // exit).
  for (const auto& slot : slots_) {
    if (slot->thread.joinable()) slot->thread.join();
  }
  slots_.clear();
  listener_.close();
}

}  // namespace avglocal::core
