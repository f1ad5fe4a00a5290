#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "common/require.hpp"

namespace lgg::obs {

namespace {

/// Length of the valid UTF-8 sequence starting at text[i], or 0 when the
/// bytes there are not well-formed UTF-8 (truncated sequence, stray
/// continuation byte, overlong encoding, surrogate, or > U+10FFFF).
[[nodiscard]] std::size_t utf8_sequence_length(std::string_view text,
                                               std::size_t i) {
  const auto byte = [&](std::size_t j) {
    return static_cast<unsigned char>(text[j]);
  };
  const unsigned char b0 = byte(i);
  std::size_t len = 0;
  std::uint32_t code = 0;
  std::uint32_t min_code = 0;
  if ((b0 & 0xe0) == 0xc0) {
    len = 2;
    code = b0 & 0x1f;
    min_code = 0x80;
  } else if ((b0 & 0xf0) == 0xe0) {
    len = 3;
    code = b0 & 0x0f;
    min_code = 0x800;
  } else if ((b0 & 0xf8) == 0xf0) {
    len = 4;
    code = b0 & 0x07;
    min_code = 0x10000;
  } else {
    return 0;  // ASCII is handled by the caller; anything else is invalid
  }
  if (i + len > text.size()) return 0;
  for (std::size_t j = 1; j < len; ++j) {
    const unsigned char b = byte(i + j);
    if ((b & 0xc0) != 0x80) return 0;
    code = (code << 6) | (b & 0x3f);
  }
  if (code < min_code) return 0;                  // overlong encoding
  if (code >= 0xd800 && code <= 0xdfff) return 0; // UTF-16 surrogate
  if (code > 0x10ffff) return 0;                  // beyond Unicode
  return len;
}

}  // namespace

void append_json_string(std::string& out, std::string_view text) {
  out.push_back('"');
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    switch (c) {
      case '"': out += "\\\""; continue;
      case '\\': out += "\\\\"; continue;
      case '\b': out += "\\b"; continue;
      case '\f': out += "\\f"; continue;
      case '\n': out += "\\n"; continue;
      case '\r': out += "\\r"; continue;
      case '\t': out += "\\t"; continue;
      default: break;
    }
    const auto b = static_cast<unsigned char>(c);
    if (b < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(b));
      out += buf;
    } else if (b < 0x80) {
      out.push_back(c);
    } else {
      // Non-ASCII: pass well-formed UTF-8 sequences through verbatim;
      // replace each invalid byte with U+FFFD so the emitted document is
      // always valid JSON in valid UTF-8, whatever bytes a label (fault
      // spec, file path, scenario name) smuggled in.
      const std::size_t len = utf8_sequence_length(text, i);
      if (len == 0) {
        out += "\\ufffd";
      } else {
        out.append(text.data() + i, len);
        i += len - 1;
      }
    }
  }
  out.push_back('"');
}

void append_json_double(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  LGG_ASSERT(ec == std::errc());
  out.append(buf, ptr);
}

void JsonWriter::begin_object() {
  if (pending_comma_) out_.push_back(',');
  out_.push_back('{');
  stack_.push_back('{');
  pending_comma_ = false;
}

void JsonWriter::begin_object(std::string_view key) {
  key_prefix(key);
  out_.push_back('{');
  stack_.push_back('{');
  pending_comma_ = false;
}

void JsonWriter::end_object() {
  LGG_REQUIRE(!stack_.empty() && stack_.back() == '{',
              "JsonWriter: end_object without begin_object");
  stack_.pop_back();
  out_.push_back('}');
  pending_comma_ = true;
}

void JsonWriter::begin_array() {
  if (pending_comma_) out_.push_back(',');
  out_.push_back('[');
  stack_.push_back('[');
  pending_comma_ = false;
}

void JsonWriter::begin_array(std::string_view key) {
  key_prefix(key);
  out_.push_back('[');
  stack_.push_back('[');
  pending_comma_ = false;
}

void JsonWriter::end_array() {
  LGG_REQUIRE(!stack_.empty() && stack_.back() == '[',
              "JsonWriter: end_array without begin_array");
  stack_.pop_back();
  out_.push_back(']');
  pending_comma_ = true;
}

void JsonWriter::key_prefix(std::string_view key) {
  LGG_REQUIRE(!stack_.empty() && stack_.back() == '{',
              "JsonWriter: keyed member outside an object");
  if (pending_comma_) out_.push_back(',');
  append_json_string(out_, key);
  out_.push_back(':');
  pending_comma_ = false;
}

void JsonWriter::field(std::string_view key, std::string_view value) {
  key_prefix(key);
  append_json_string(out_, value);
  pending_comma_ = true;
}

void JsonWriter::field(std::string_view key, double value) {
  key_prefix(key);
  append_json_double(out_, value);
  pending_comma_ = true;
}

void JsonWriter::field(std::string_view key, std::int64_t value) {
  key_prefix(key);
  out_ += std::to_string(value);
  pending_comma_ = true;
}

void JsonWriter::field(std::string_view key, std::uint64_t value) {
  key_prefix(key);
  out_ += std::to_string(value);
  pending_comma_ = true;
}

void JsonWriter::field(std::string_view key, bool value) {
  key_prefix(key);
  out_ += value ? "true" : "false";
  pending_comma_ = true;
}

void JsonWriter::value(std::string_view v) {
  if (pending_comma_) out_.push_back(',');
  append_json_string(out_, v);
  pending_comma_ = true;
}

void JsonWriter::value(double v) {
  if (pending_comma_) out_.push_back(',');
  append_json_double(out_, v);
  pending_comma_ = true;
}

void JsonWriter::value(std::int64_t v) {
  if (pending_comma_) out_.push_back(',');
  out_ += std::to_string(v);
  pending_comma_ = true;
}

void JsonWriter::value(std::uint64_t v) {
  if (pending_comma_) out_.push_back(',');
  out_ += std::to_string(v);
  pending_comma_ = true;
}

}  // namespace lgg::obs
