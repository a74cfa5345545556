#pragma once
// String-keyed factory registry with alias support — the extension seam
// behind the partitioner and distribution-strategy catalogs. Components
// self-register at static-initialization time (the library is linked as an
// object library, so every registrar translation unit is always present),
// which lets drivers select implementations purely by name and lets new
// implementations be added without touching any existing caller.

#include <algorithm>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace sagnn {

/// Typed unknown-name error raised by NamedRegistry::create()/require().
/// Subclasses std::invalid_argument, so pre-existing catch sites keep
/// working; the message always lists every registered choice.
class UnknownNameError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

template <typename Base, typename... Args>
class NamedRegistry {
 public:
  using Factory = std::function<std::unique_ptr<Base>(Args...)>;

  /// `kind` names the registry in error messages ("partitioner", ...).
  explicit NamedRegistry(std::string kind) : kind_(std::move(kind)) {}

  /// Register a factory under a canonical name plus optional aliases.
  /// Canonical names appear in names(); aliases only resolve in create().
  void add(const std::string& canonical, std::vector<std::string> aliases,
           Factory factory) {
    SAGNN_REQUIRE(factory != nullptr, "null factory for " + canonical);
    insert_key(canonical, factory);
    canonical_.push_back(canonical);
    for (const std::string& alias : aliases) insert_key(alias, factory);
    aliases_.emplace(canonical, std::move(aliases));
  }

  bool contains(const std::string& name) const {
    return factories_.find(name) != factories_.end();
  }

  /// Sorted canonical names (the supported vocabulary).
  std::vector<std::string> names() const {
    std::vector<std::string> out = canonical_;
    std::sort(out.begin(), out.end());
    return out;
  }

  /// The aliases registered alongside a canonical name (empty for unknown
  /// or alias-free names).
  std::vector<std::string> aliases(const std::string& canonical) const {
    auto it = aliases_.find(canonical);
    return it != aliases_.end() ? it->second : std::vector<std::string>{};
  }

  /// The canonical name `name` resolves to; `name` itself when it is
  /// canonical or unknown.
  std::string canonical(const std::string& name) const {
    for (const auto& [canon, aka] : aliases_) {
      if (std::find(aka.begin(), aka.end(), name) != aka.end()) return canon;
    }
    return name;
  }

  /// Human-readable catalog: every canonical name with its aliases, e.g.
  /// "gvb (aka gvb(volume-balancing))". Used by error messages and the
  /// drivers' --list mode.
  std::string catalog() const {
    std::ostringstream os;
    const auto known = names();
    for (std::size_t i = 0; i < known.size(); ++i) {
      os << (i > 0 ? ", " : "") << known[i];
      const auto aka = aliases(known[i]);
      for (std::size_t a = 0; a < aka.size(); ++a) {
        os << (a == 0 ? " (aka " : ", ") << aka[a];
      }
      if (!aka.empty()) os << ")";
    }
    return os.str();
  }

  /// Fail-fast validation: throws UnknownNameError unless `name` resolves
  /// (canonical or alias) or appears in `builtins` — extra vocabulary the
  /// caller accepts outside this registry ("serial", "sampled").
  void require(const std::string& name,
               std::initializer_list<const char*> builtins = {}) const {
    if (contains(name)) return;
    for (const char* b : builtins) {
      if (name == b) return;
    }
    std::ostringstream os;
    os << "unknown " << kind_ << ": '" << name << "' (registered: " << catalog();
    bool first = true;
    for (const char* b : builtins) {
      os << (first ? "; built-in: " : ", ") << b;
      first = false;
    }
    os << ")";
    throw UnknownNameError(os.str());
  }

  /// Instantiate by canonical name or alias. Unknown names get an
  /// UnknownNameError (a std::invalid_argument) listing every registered
  /// choice.
  template <typename... CallArgs>
  std::unique_ptr<Base> create(const std::string& name, CallArgs&&... args) const {
    auto it = factories_.find(name);
    if (it == factories_.end()) require(name);  // throws
    return it->second(std::forward<CallArgs>(args)...);
  }

 private:
  void insert_key(const std::string& key, const Factory& factory) {
    const bool inserted = factories_.emplace(key, factory).second;
    SAGNN_REQUIRE(inserted, "duplicate " + kind_ + " registration: " + key);
  }

  std::string kind_;
  std::map<std::string, Factory> factories_;
  std::vector<std::string> canonical_;
  std::map<std::string, std::vector<std::string>> aliases_;
};

}  // namespace sagnn
