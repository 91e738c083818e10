// Minimal command-line flag parser shared by the bench harnesses and
// examples.
//
// Supports `--name=value`, `--name value`, and boolean `--name` /
// `--no-name` forms. Unknown flags are an error (so typos in experiment
// sweeps fail loudly instead of silently running defaults).
//
// Every Get* call doubles as the flag's declaration: the name, type and
// default are recorded in call order, so Usage() can print a complete
// auto-generated `--help` listing without a separate registration step.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace phoenix::util {

class Flags {
 public:
  /// Parses argv. Returns false (and fills error()) on malformed input or,
  /// after Get* calls, on unknown-flag detection via Validate().
  bool Parse(int argc, const char* const* argv);

  /// Declares + reads a flag. Each getter records the flag name so Validate()
  /// can reject unrecognized arguments.
  std::string GetString(const std::string& name, const std::string& def);
  std::int64_t GetInt(const std::string& name, std::int64_t def);
  double GetDouble(const std::string& name, double def);
  bool GetBool(const std::string& name, bool def);

  /// True if the user supplied the flag explicitly.
  bool Provided(const std::string& name) const;

  /// Returns false if any parsed flag was never declared via a getter.
  bool Validate();

  /// Terminal-caller epilogue: call after every Get* declaration. On
  /// `--help`, prints Usage() to stdout and exits 0. On a malformed value
  /// or an unknown flag, prints the error plus the auto-generated usage to
  /// stderr and exits 1 — a typo in an experiment sweep must never run the
  /// defaults silently.
  void ValidateOrExit();

  /// True if the user passed `--help` (always accepted, never a Validate
  /// error). Check after every Get* declaration, before Validate(), and
  /// print Usage() if set.
  bool HelpRequested() const;

  /// Auto-generated usage text: every flag declared so far, in declaration
  /// order, with its type and default value.
  std::string Usage() const;

  const std::string& error() const { return error_; }
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  /// One declared flag, recorded by the first Get* call for its name.
  struct Declared {
    std::string name;
    const char* type;  // "string" | "int" | "double" | "bool"
    std::string default_value;
  };

  void Declare(const std::string& name, const char* type,
               std::string default_value);

  /// Inserts or overwrites a parsed value, keeping values_ key-sorted.
  void SetValue(const std::string& name, std::string value);
  /// Binary-search lookup; nullptr when the flag was not supplied.
  const std::string* FindValue(const std::string& name) const;
  bool IsDeclared(const std::string& name) const;

  std::string program_ = "program";
  // Key-sorted flat vectors instead of node-based maps: a flag set is a
  // handful of short strings, so binary search over contiguous pairs beats
  // pointer-chasing, and Validate() still walks keys in the ascending order
  // std::map used to give (identical first-unknown error message).
  std::vector<std::pair<std::string, std::string>> values_;
  std::vector<std::string> declared_;
  std::vector<Declared> declaration_order_;
  std::vector<std::string> positional_;
  std::string error_;
};

/// A count or size flag's value and the least it may be.
struct CountFlag {
  const char* name;
  std::int64_t value;
  std::int64_t min = 1;
};

/// Bad input is a usage error, not an abort deep in a constructor: collects
/// every problem of a command line, then exits 1 naming each bad flag once.
/// Call after Flags::ValidateOrExit.
class UsageErrors {
 public:
  /// Records `message` unless `ok`.
  void Require(bool ok, const std::string& message);
  /// Records "--<name> must be >= <min> (got <value>)" for every count
  /// below its minimum.
  void RequireCounts(std::initializer_list<CountFlag> counts);
  /// Prints every recorded problem to stderr, one per line, and exits 1 if
  /// there was any.
  void ExitIfAny() const;

 private:
  std::vector<std::string> problems_;
};

}  // namespace phoenix::util
