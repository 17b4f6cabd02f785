#include "core/serve.hpp"

#include <exception>

#include "support/json_reader.hpp"
#include "support/json_writer.hpp"

namespace avglocal::core {

using support::error_reply;

Server::Server(const ServeOptions& options)
    : options_(options),
      cache_(ResultCacheOptions{options.threads, options.batch_size}),
      host_(options.max_clients,
            [this](std::uint64_t, const std::string& line) { return handle_request(line); }) {}

void Server::start() { host_.start(support::parse_endpoint("unix:" + options_.socket_path)); }

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
      json.key("partial_bytes").value(stats.partial_bytes);
      json.key("report_bytes").value(stats.report_bytes);
      json.end_object();
    } else if (op == "shutdown") {
      json.begin_object();
      json.key("ok").value(true);
      json.key("op").value("shutdown");
      json.end_object();
      reply.after = Reply::After::kStop;
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
      return error_reply("unknown op '" + op + "'");
    }
    reply.line = json.str();
  } catch (const std::exception& error) {
    return error_reply(error.what());
  }
  return reply;
}

}  // namespace avglocal::core
