#pragma once
// Unified named-field configuration checking.
//
// Every config struct in the codebase grew its own throwing
// `ValidateXxxConfig` over PRs 1-6.  Throwing is the right interface at
// construction time -- a bad config is a programming error there -- but
// it is the wrong one for a search loop that proposes thousands of
// mutated configs per second and needs to reject the illegal ones
// cheaply, and it makes tests assert on substrings of prose instead of
// on fields.
//
// This header defines the shared currency: a `ConfigIssue` names the
// offending field (dot-path into the aggregate, e.g.
// "replica[1].engine.former.timeout_s") and the reason it is illegal.
// Each module now exposes a non-throwing
//
//   ConfigIssues CheckXxxConfig(const XxxConfig&);
//
// returning every issue found (empty means legal).  There are no
// per-module throwing wrappers: an API edge (a constructor, a trace
// generator) calls `ThrowOnIssues("XxxConfig", CheckXxxConfig(cfg))`
// directly, which throws std::invalid_argument on the first issue with
// the historical "<XxxConfig>: <field> <reason>" message.  Tests assert
// `HasIssueFor(CheckXxxConfig(cfg), "<field>")` instead of matching
// prose.

#include <string>
#include <vector>

namespace latte {

/// One reason a configuration is illegal: which field, and why.
struct ConfigIssue {
  std::string field;   ///< dot-path of the offending field
  std::string reason;  ///< human-readable constraint, e.g. "must be >= 1"

  bool operator==(const ConfigIssue&) const = default;
};

using ConfigIssues = std::vector<ConfigIssue>;

/// Appends one issue.
void AddIssue(ConfigIssues& issues, std::string field, std::string reason);

/// Appends `child` issues with "<prefix>." prepended to each field, so
/// nested config checkers compose into dot-paths.
void MergePrefixed(ConfigIssues& issues, const std::string& prefix,
                   ConfigIssues child);

/// "<config_name>: <field> <reason>" -- the historical message shape of
/// the throwing validators.
std::string FormatIssue(const std::string& config_name,
                        const ConfigIssue& issue);

/// Throws std::invalid_argument with FormatIssue of the first issue;
/// no-op when `issues` is empty.
void ThrowOnIssues(const std::string& config_name, const ConfigIssues& issues);

/// True when `issues` contains an entry whose field path equals `field`
/// or ends with ".<field>" -- the assertion helper tests use.
bool HasIssueFor(const ConfigIssues& issues, const std::string& field);

}  // namespace latte
