#include "util/json.h"

#include <cstdio>

namespace afp {

std::string JsonWriter::Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

void JsonWriter::MaybeComma() {
  if (!needs_comma_.empty() && needs_comma_.back()) out_ += ',';
  if (!needs_comma_.empty()) needs_comma_.back() = true;
}

JsonWriter& JsonWriter::BeginObject() {
  MaybeComma();
  out_ += '{';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_ += '}';
  needs_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray(const std::string& key) {
  if (!key.empty()) Key(key);
  MaybeComma();  // after a key: no comma, but a later member needs one
  out_ += '[';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_ += ']';
  needs_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(const std::string& key) {
  MaybeComma();
  out_ += Quote(key);
  out_ += ':';
  if (!needs_comma_.empty()) needs_comma_.back() = false;
  return *this;
}

JsonWriter& JsonWriter::Value(const std::string& s) {
  MaybeComma();
  out_ += Quote(s);
  return *this;
}

JsonWriter& JsonWriter::Value(const char* s) {
  return Value(std::string(s));
}

JsonWriter& JsonWriter::Value(bool b) {
  MaybeComma();
  out_ += b ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::Value(std::uint64_t n) {
  MaybeComma();
  out_ += std::to_string(n);
  return *this;
}

JsonWriter& JsonWriter::Value(double d) {
  MaybeComma();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", d);
  out_ += buf;
  return *this;
}

}  // namespace afp
