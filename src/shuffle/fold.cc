#include "shuffle/fold.h"

#include <charconv>
#include <system_error>

namespace dmb::shuffle {

namespace {

std::string Quoted(std::string_view s) {
  constexpr size_t kMaxShown = 64;
  std::string out = "'";
  out.append(s.substr(0, kMaxShown));
  if (s.size() > kMaxShown) out.append("...");
  out.push_back('\'');
  return out;
}

}  // namespace

Status ParseInt64(std::string_view key, std::string_view value, int64_t* out) {
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, *out);
  if (ec == std::errc::result_out_of_range) {
    return Status::InvalidArgument("int64 sum: value " + Quoted(value) +
                                   " of key " + Quoted(key) +
                                   " overflows int64");
  }
  if (ec != std::errc() || ptr != end) {
    return Status::InvalidArgument("int64 sum: value " + Quoted(value) +
                                   " of key " + Quoted(key) +
                                   " is not a decimal integer");
  }
  return Status::OK();
}

Status AddInt64(std::string_view key, std::string_view value, int64_t* acc) {
  int64_t v = 0;
  DMB_RETURN_NOT_OK(ParseInt64(key, value, &v));
  int64_t sum = 0;
  if (__builtin_add_overflow(*acc, v, &sum)) {
    return Status::InvalidArgument("int64 sum: total of key " + Quoted(key) +
                                   " overflows int64");
  }
  *acc = sum;
  return Status::OK();
}

std::string FormatInt64(int64_t v) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;  // 24 bytes hold every int64
  return std::string(buf, ptr);
}

}  // namespace dmb::shuffle
