#include "util/flags.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "util/format.h"

namespace phoenix::util {

namespace {

bool LooksLikeFlag(const std::string& arg) {
  return arg.size() > 2 && arg[0] == '-' && arg[1] == '-';
}

}  // namespace

void Flags::SetValue(const std::string& name, std::string value) {
  const auto it = std::lower_bound(
      values_.begin(), values_.end(), name,
      [](const auto& entry, const std::string& key) { return entry.first < key; });
  if (it != values_.end() && it->first == name) {
    it->second = std::move(value);  // later occurrence wins, like map[]=
  } else {
    values_.insert(it, {name, std::move(value)});
  }
}

const std::string* Flags::FindValue(const std::string& name) const {
  const auto it = std::lower_bound(
      values_.begin(), values_.end(), name,
      [](const auto& entry, const std::string& key) { return entry.first < key; });
  if (it == values_.end() || it->first != name) return nullptr;
  return &it->second;
}

bool Flags::IsDeclared(const std::string& name) const {
  return std::binary_search(declared_.begin(), declared_.end(), name);
}

bool Flags::Parse(int argc, const char* const* argv) {
  if (argc > 0 && argv[0] != nullptr && argv[0][0] != '\0') {
    program_ = argv[0];
    const auto slash = program_.find_last_of('/');
    if (slash != std::string::npos) program_ = program_.substr(slash + 1);
  }
  // `--help` is accepted by every binary without being declared by a getter.
  declared_.insert(
      std::lower_bound(declared_.begin(), declared_.end(), "help"), "help");
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!LooksLikeFlag(arg)) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      SetValue(arg.substr(0, eq), arg.substr(eq + 1));
      continue;
    }
    // `--no-name` boolean negation.
    if (arg.rfind("no-", 0) == 0) {
      SetValue(arg.substr(3), "false");
      continue;
    }
    // `--name value` if the next token is not itself a flag, else bare bool.
    if (i + 1 < argc && !LooksLikeFlag(argv[i + 1])) {
      SetValue(arg, argv[++i]);
    } else {
      SetValue(arg, "true");
    }
  }
  return true;
}

void Flags::Declare(const std::string& name, const char* type,
                    std::string default_value) {
  const auto it = std::lower_bound(declared_.begin(), declared_.end(), name);
  if (it != declared_.end() && *it == name) {
    // Re-declaration. Two Get* calls for the same flag must agree on type
    // and default, or the value the program sees depends on call order — a
    // silent registration conflict. Abort loudly at startup instead.
    // Names without a declaration record ("help", injected by Parse) have
    // nothing to conflict with.
    for (const auto& d : declaration_order_) {
      if (d.name != name) continue;
      if (std::string_view(d.type) != type || d.default_value != default_value) {
        std::fprintf(stderr,
                     "%s: flag --%s declared twice with conflicting "
                     "registrations: %s (default %s) vs %s (default %s)\n",
                     program_.c_str(), name.c_str(), d.type,
                     d.default_value.c_str(), type, default_value.c_str());
        std::abort();
      }
      break;
    }
    return;  // identical re-declaration: first one stands
  }
  declared_.insert(it, name);
  declaration_order_.push_back({name, type, std::move(default_value)});
}

std::string Flags::GetString(const std::string& name, const std::string& def) {
  Declare(name, "string", def.empty() ? "\"\"" : def);
  const std::string* v = FindValue(name);
  return v == nullptr ? def : *v;
}

std::int64_t Flags::GetInt(const std::string& name, std::int64_t def) {
  Declare(name, "int", std::to_string(def));
  const std::string* value = FindValue(name);
  if (value == nullptr) return def;
  char* end = nullptr;
  const std::int64_t v = std::strtoll(value->c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    error_ = "flag --" + name + " expects an integer, got '" + *value + "'";
    return def;
  }
  return v;
}

double Flags::GetDouble(const std::string& name, double def) {
  {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", def);
    Declare(name, "double", buf);
  }
  const std::string* value = FindValue(name);
  if (value == nullptr) return def;
  char* end = nullptr;
  const double v = std::strtod(value->c_str(), &end);
  if (end == nullptr || *end != '\0') {
    error_ = "flag --" + name + " expects a number, got '" + *value + "'";
    return def;
  }
  return v;
}

bool Flags::GetBool(const std::string& name, bool def) {
  Declare(name, "bool", def ? "true" : "false");
  const std::string* value = FindValue(name);
  if (value == nullptr) return def;
  const std::string& v = *value;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  error_ = "flag --" + name + " expects a boolean, got '" + v + "'";
  return def;
}

bool Flags::Provided(const std::string& name) const {
  return FindValue(name) != nullptr;
}

bool Flags::HelpRequested() const {
  const std::string* v = FindValue("help");
  if (v == nullptr) return false;
  return *v != "false" && *v != "0" && *v != "no" && *v != "off";
}

std::string Flags::Usage() const {
  std::string out = "usage: " + program_ + " [--flag=value ...]\n\nflags:\n";
  std::size_t width = 0;
  for (const auto& d : declaration_order_) {
    width = std::max(width, d.name.size());
  }
  for (const auto& d : declaration_order_) {
    out += "  --" + d.name;
    out.append(width - d.name.size() + 2, ' ');
    out += d.type;
    out += "  (default: " + d.default_value + ")\n";
  }
  out += "  --help";
  if (width >= 4) out.append(width - 4 + 2, ' ');
  out += "bool  (default: false)\n";
  return out;
}

void Flags::ValidateOrExit() {
  if (HelpRequested()) {
    std::fputs(Usage().c_str(), stdout);
    std::exit(0);
  }
  if (!Validate()) {
    std::fprintf(stderr, "%s: %s\n\n%s", program_.c_str(), error_.c_str(),
                 Usage().c_str());
    std::exit(1);
  }
}

bool Flags::Validate() {
  if (!error_.empty()) return false;
  for (const auto& [name, value] : values_) {
    (void)value;
    if (!IsDeclared(name)) {
      error_ = "unknown flag --" + name;
      return false;
    }
  }
  return true;
}

void UsageErrors::Require(bool ok, const std::string& message) {
  if (!ok) problems_.push_back(message);
}

void UsageErrors::RequireCounts(std::initializer_list<CountFlag> counts) {
  for (const CountFlag& c : counts) {
    Require(c.value >= c.min,
            StrFormat("--%s must be >= %lld (got %lld)", c.name,
                      static_cast<long long>(c.min),
                      static_cast<long long>(c.value)));
  }
}

void UsageErrors::ExitIfAny() const {
  for (const std::string& p : problems_) std::fprintf(stderr, "%s\n", p.c_str());
  if (!problems_.empty()) std::exit(1);
}

}  // namespace phoenix::util
