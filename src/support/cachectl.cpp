#include "support/cachectl.hpp"

#include <cstdlib>

namespace chordal::support {

namespace {

int g_override = -1;  // -1 = follow environment, 0 = off, 1 = on

bool env_enabled() {
  const char* value = std::getenv("CHORDAL_BALL_CACHE");
  if (value == nullptr || value[0] == '\0') return true;
  return !(value[0] == '0' && value[1] == '\0');
}

}  // namespace

bool cache_enabled() {
  if (g_override >= 0) return g_override != 0;
  static const bool from_env = env_enabled();
  return from_env;
}

void set_cache_enabled(int enabled) {
  g_override = enabled < 0 ? -1 : (enabled != 0 ? 1 : 0);
}

}  // namespace chordal::support
