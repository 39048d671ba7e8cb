#include "nshot/journal.hpp"

#include <fstream>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/json_value.hpp"

namespace nshot {

std::string journal_line(const BatchRunResult& result) {
  JsonWriter json;
  json.begin_object();
  json.key("id").value(result.id);
  json.key("status").value(result.ok ? "ok" : "failed");
  if (!result.ok) {
    json.key("code").value(error_code_name(result.code));
    json.key("stage").value(result.stage);
    json.key("message").value(result.message);
  }
  json.key("attempts").value(result.attempts);
  json.key("elapsed_ms").value(result.elapsed_ms);
  if (result.kernel_fallbacks > 0) json.key("kernel_fallbacks").value(result.kernel_fallbacks);
  json.end_object();
  return json.str();
}

namespace {

/// The journal object on `line`, or null for a torn or malformed line.
JsonValue parse_line(const std::string& line) {
  try {
    return parse_json(line, "journal line");
  } catch (const Error&) {
    return {};
  }
}

/// String member `key` of a journal object; "" when absent or not a string.
std::string string_member(const JsonValue& object, const std::string& key) {
  const JsonValue* member = object.find(key);
  return member && member->is_string() ? member->as_string() : std::string();
}

}  // namespace

std::map<std::string, std::string> read_journal(const std::string& path) {
  std::map<std::string, std::string> journaled;
  if (path.empty()) return journaled;
  std::ifstream journal(path);
  std::string line;
  while (journal && std::getline(journal, line)) {
    const JsonValue record = parse_line(line);
    std::string id = string_member(record, "id");
    if (!id.empty() && !string_member(record, "status").empty()) journaled[std::move(id)] = line;
  }
  return journaled;
}

BatchRunResult journal_result(const std::string& id, const std::string& line) {
  const JsonValue record = parse_line(line);
  BatchRunResult result;
  result.id = id;
  result.resumed = true;
  result.ok = string_member(record, "status") == "ok";
  if (!result.ok) {
    result.code = error_code_from_name(string_member(record, "code"));
    result.stage = string_member(record, "stage");
    result.message = string_member(record, "message");
  }
  return result;
}

BatchRunResult batch_result(const Response& response) {
  BatchRunResult result;
  result.id = response.id;
  result.ok = response.outcome.ok();
  result.attempts = response.attempts;
  result.elapsed_ms = response.elapsed_ms;
  if (result.ok) {
    result.kernel_fallbacks = static_cast<int>(response.outcome.run->kernel_fallbacks.size());
  } else {
    result.code = response.outcome.code;
    result.stage = response.outcome.stage;
    result.message = response.outcome.message;
  }
  return result;
}

}  // namespace nshot
