#include "callgraph.h"

#include <algorithm>
#include <functional>

namespace conlint {

namespace {

std::string last_component(const std::string& qualified) {
  const std::size_t pos = qualified.rfind("::");
  return pos == std::string::npos ? qualified : qualified.substr(pos + 2);
}

std::string site_ref(const FunctionDef& fn) {
  return "'" + fn.name + "' (" + fn.file + ":" +
         std::to_string(fn.head_line) + ")";
}

bool recursive_mutex_type(const std::string& type_key) {
  return type_key.find("recursive") != std::string::npos;
}

// True when `qual` names a suffix of the namespace chain `ns` at a `::`
// boundary: a call spelled `scalar::add(...)` matches a definition inside
// `namespace con::tensor::kernels::scalar` but NOT one inside
// `con::tensor` — the qualifier must name the innermost segments.
bool ns_suffix_match(const std::string& ns, const std::string& qual) {
  if (ns == qual) return true;
  if (ns.size() < qual.size() + 2) return false;
  return ns.compare(ns.size() - qual.size(), qual.size(), qual) == 0 &&
         ns.compare(ns.size() - qual.size() - 2, 2, "::") == 0;
}

}  // namespace

CallGraph::CallGraph(const ProjectIndex& index) : index_(index) {
  const auto& fns = index_.functions();
  taint_memo_.resize(fns.size());
  lock_ids_.resize(fns.size());
  closure_.resize(fns.size());

  resolve_mutexes(index);

  build_lock_graph();
  find_cycles();
}

std::vector<std::size_t> CallGraph::resolve(const FunctionDef& caller,
                                            const CallSite& call) const {
  const std::vector<std::size_t>* ids = index_.functions_named(call.name);
  if (ids == nullptr) return {};
  const auto& fns = index_.functions();
  std::vector<std::size_t> out;
  if (call.member) {
    // Type the receiver chain when it resolves cleanly. Three outcomes:
    // a known class (restrict candidates to it and its derived classes — a
    // by-name match on an unrelated class must not accuse this call), a
    // known member of UNKNOWN type (`im.ptr.get()` where ptr is a
    // shared_ptr: the target is not in this tree, resolve to nothing),
    // or untypable (stay with the coarse all-methods-of-that-name set).
    std::string type;      // known receiver class, "" while untyped
    bool dead_end = false; // typed into a class this tree does not define
    if (!call.receiver.empty()) {
      const std::string& head = call.receiver[0];
      if (head == "this") {
        type = caller.class_name;
      } else {
        auto lt = caller.local_types.find(head);
        if (lt != caller.local_types.end() &&
            index_.known_class(lt->second)) {
          type = lt->second;
        } else if (!caller.class_name.empty()) {
          const MemberInfo* mi = index_.member(caller.class_name, head);
          if (mi == nullptr) {
            for (const std::string& a :
                 index_.ancestors_of(caller.class_name)) {
              mi = index_.member(a, head);
              if (mi != nullptr) break;
            }
          }
          if (mi != nullptr) {
            if (index_.known_class(mi->type_key)) type = mi->type_key;
            else dead_end = true;
          }
        }
      }
      for (std::size_t seg = 1; !type.empty() && seg < call.receiver.size();
           ++seg) {
        const MemberInfo* mi = index_.member(type, call.receiver[seg]);
        type.clear();
        if (mi == nullptr) break;  // untypable from here: stay coarse
        if (index_.known_class(mi->type_key)) type = mi->type_key;
        else dead_end = true;      // typed into an unindexed class
      }
    }
    if (dead_end) return {};
    std::set<std::string> allowed;
    if (!type.empty()) allowed = index_.derived_from(type);
    for (std::size_t id : *ids) {
      if (fns[id].class_name.empty()) continue;
      if (!allowed.empty() && allowed.count(fns[id].class_name) == 0) {
        continue;
      }
      // `x.f()` inside the only indexed `f` is a call on ANOTHER object or
      // a different (unindexed) method — resolving it back to the caller
      // itself manufactures self-edges (e.g. phantom self-deadlocks on the
      // caller's own guard).
      if (&fns[id] == &caller) continue;
      out.push_back(id);
    }
    return out;
  }
  if (!call.qualifier.empty()) {
    const std::string cls = last_component(call.qualifier);
    if (index_.known_class(cls)) {
      for (std::size_t id : *ids) {
        if (fns[id].class_name == cls) out.push_back(id);
      }
      return out;
    }
    // Namespace-qualified: only definitions whose enclosing namespace chain
    // ends with the spelled qualifier. `scalar::add` must never resolve to
    // `con::tensor::add`; no match degrades to a miss, not an accusation.
    // Definitions with no recorded namespace still match (test fixtures and
    // global-scope code predate namespace tracking).
    for (std::size_t id : *ids) {
      if (!fns[id].class_name.empty()) continue;
      if (fns[id].ns.empty() || ns_suffix_match(fns[id].ns, call.qualifier)) {
        out.push_back(id);
      }
    }
    return out;
  }
  // Unqualified: prefer methods of the caller's own class hierarchy.
  if (!caller.class_name.empty()) {
    std::set<std::string> own = index_.ancestors_of(caller.class_name);
    own.insert(caller.class_name);
    for (std::size_t id : *ids) {
      if (!fns[id].class_name.empty() && own.count(fns[id].class_name) != 0) {
        out.push_back(id);
      }
    }
    if (!out.empty()) return out;
  }
  for (std::size_t id : *ids) {
    if (fns[id].class_name.empty()) out.push_back(id);
  }
  return out;
}

// ---- transitive taint -------------------------------------------------------

bool CallGraph::taint_reachable(std::size_t fn,
                                std::vector<Reach>& memo) const {
  Reach& r = memo[fn];
  if (r.state == 3) return true;
  if (r.state == 2 || r.state == 1) return false;
  r.state = 1;
  const FunctionDef& def = index_.functions()[fn];
  if (!def.randoms.empty()) {
    r.state = 3;
    r.site = 0;
    return true;
  }
  for (std::size_t ci = 0; ci < def.calls.size(); ++ci) {
    const CallSite& c = def.calls[ci];
    for (std::size_t target : resolve(def, c)) {
      if (target == fn) continue;
      if (taint_reachable(target, memo)) {
        r.state = 3;
        r.via_call = static_cast<int>(ci);
        r.via_target = static_cast<int>(target);
        return true;
      }
    }
  }
  r.state = 2;
  return false;
}

CallGraph::TaintResult CallGraph::taint_chain(const FunctionDef& caller,
                                              const CallSite& call) const {
  TaintResult out;
  for (std::size_t target : resolve(caller, call)) {
    if (!taint_reachable(target, taint_memo_)) continue;
    std::string chain;
    std::size_t at = target;
    for (int hop = 0; hop < 64; ++hop) {
      const FunctionDef& def = index_.functions()[at];
      const Reach& r = taint_memo_[at];
      chain += site_ref(def);
      if (r.site >= 0) {
        const RandomSite& s = def.randoms[static_cast<std::size_t>(r.site)];
        chain += " -> " + s.what + " at " + def.file + ":" +
                 std::to_string(s.line);
        out.what = s.what;
        out.source_exempt = determinism_exempt_path(def.file);
        break;
      }
      chain += " -> ";
      at = static_cast<std::size_t>(r.via_target);
    }
    out.found = true;
    out.chain = chain;
    return out;
  }
  return out;
}

// ---- lock-order -------------------------------------------------------------

void CallGraph::resolve_mutexes(const ProjectIndex& index) {
  const auto& fns = index.functions();
  for (std::size_t f = 0; f < fns.size(); ++f) {
    const FunctionDef& fn = fns[f];
    lock_ids_[f].resize(fn.locks.size());
    for (std::size_t l = 0; l < fn.locks.size(); ++l) {
      const LockSite& s = fn.locks[l];
      std::string id;
      std::string type_key;
      if (s.path.empty()) {
        // nothing
      } else if (s.qualified && s.path.size() >= 2) {
        const std::string& cls = s.path[s.path.size() - 2];
        const std::string& m = s.path.back();
        const MemberInfo* mi = index.member(cls, m);
        if (mi != nullptr) {
          id = cls + "::" + m;
          type_key = mi->type_key;
        } else {
          id = fn.file + "::" + m;  // namespace-qualified file-scope global
        }
      } else if (s.path.size() == 1) {
        const std::string& m = s.path[0];
        auto lt = fn.local_types.find(m);
        if (lt != fn.local_types.end() &&
            (lt->second == "mutex" || lt->second == "shared_mutex" ||
             lt->second == "recursive_mutex" || lt->second == "timed_mutex" ||
             lt->second == "shared_timed_mutex" ||
             lt->second == "recursive_timed_mutex")) {
          // Function-local (usually `static`) mutex.
          id = fn.file + "#" + fn.name + "::" + m;
          type_key = lt->second;
        } else if (!fn.class_name.empty() &&
                   index.member(fn.class_name, m) != nullptr) {
          id = fn.class_name + "::" + m;
          type_key = index.member(fn.class_name, m)->type_key;
        } else {
          bool found = false;
          if (!fn.class_name.empty()) {
            for (const std::string& a : index.ancestors_of(fn.class_name)) {
              const MemberInfo* mi = index.member(a, m);
              if (mi != nullptr) {
                id = a + "::" + m;
                type_key = mi->type_key;
                found = true;
                break;
              }
            }
          }
          if (!found) {
            const std::vector<std::string> classes =
                index.classes_with_member(m);
            if (classes.size() == 1) {
              id = classes[0] + "::" + m;
              type_key = index.member(classes[0], m)->type_key;
            } else if (classes.empty()) {
              // File-scope static or anonymous-namespace global.
              id = fn.file + "::" + m;
            }
            // Several classes share the member name and nothing types the
            // receiver: leave unresolved — no edges beats false ones.
          }
        }
      } else {
        // obj.member / obj->member chain: type the receiver.
        const std::string& obj = s.path[s.path.size() - 2];
        const std::string& m = s.path.back();
        auto lt = fn.local_types.find(obj);
        if (lt != fn.local_types.end() &&
            index.member(lt->second, m) != nullptr) {
          id = lt->second + "::" + m;
          type_key = index.member(lt->second, m)->type_key;
        } else if (!fn.class_name.empty() &&
                   index.member(fn.class_name, obj) != nullptr &&
                   index.member(index.member(fn.class_name, obj)->type_key,
                                m) != nullptr) {
          const std::string& cls = index.member(fn.class_name, obj)->type_key;
          id = cls + "::" + m;
          type_key = index.member(cls, m)->type_key;
        } else {
          const std::vector<std::string> classes =
              index.classes_with_member(m);
          if (classes.size() == 1) {
            id = classes[0] + "::" + m;
            type_key = index.member(classes[0], m)->type_key;
          }
        }
      }
      lock_ids_[f][l] = id;
      if (!id.empty() && recursive_mutex_type(type_key)) {
        recursive_ids_.insert(id);
      }
    }
  }
}

void CallGraph::build_lock_graph() {
  const auto& fns = index_.functions();

  // Acquisition closure per function (what does calling it lock, at any
  // depth), computed by DFS with a visiting guard for recursion.
  std::vector<int> state(fns.size(), 0);
  std::function<void(std::size_t)> compute = [&](std::size_t f) {
    if (state[f] != 0) return;
    state[f] = 1;
    const FunctionDef& fn = fns[f];
    for (std::size_t l = 0; l < fn.locks.size(); ++l) {
      const std::string& id = lock_ids_[f][l];
      if (id.empty()) continue;
      closure_[f].emplace(id, Acquire{fn.file, fn.locks[l].line, ""});
    }
    for (const CallSite& c : fn.calls) {
      for (std::size_t target : resolve(fn, c)) {
        if (state[target] == 1) continue;  // recursion: already on the stack
        compute(target);
        for (const auto& [id, acq] : closure_[target]) {
          std::string chain = "'" + fns[target].name + "' (called at " +
                              fn.file + ":" + std::to_string(c.line) + ")";
          if (!acq.chain.empty()) chain += " -> " + acq.chain;
          closure_[f].emplace(id, Acquire{acq.file, acq.line, chain});
        }
      }
    }
    state[f] = 2;
  };
  for (std::size_t f = 0; f < fns.size(); ++f) compute(f);

  // Edges: M1 -> M2 whenever M2 is acquired (directly or through a call)
  // inside M1's guard scope.
  for (std::size_t f = 0; f < fns.size(); ++f) {
    const FunctionDef& fn = fns[f];
    for (std::size_t l = 0; l < fn.locks.size(); ++l) {
      const LockSite& held = fn.locks[l];
      const std::string& from = lock_ids_[f][l];
      if (from.empty()) continue;
      for (std::size_t m = 0; m < fn.locks.size(); ++m) {
        const LockSite& next = fn.locks[m];
        const std::string& to = lock_ids_[f][m];
        if (to.empty() || next.group == held.group) continue;
        if (next.tok <= held.tok || next.tok >= held.scope_end) continue;
        if (from == to && recursive_ids_.count(from) != 0) continue;
        lock_graph_[from].emplace(
            to, LockEdge{from, to, fn.file, next.line,
                         "'" + next.expr + "' acquired at " + fn.file + ":" +
                             std::to_string(next.line) + " while '" +
                             held.expr + "' (locked at line " +
                             std::to_string(held.line) + " in '" + fn.name +
                             "') is held"});
      }
      for (const CallSite& c : fn.calls) {
        if (c.tok <= held.tok || c.tok >= held.scope_end) continue;
        for (std::size_t target : resolve(fn, c)) {
          for (const auto& [to, acq] : closure_[target]) {
            if (from == to && recursive_ids_.count(from) != 0) continue;
            std::string note = "call to '" + c.name + "' at " + fn.file +
                               ":" + std::to_string(c.line) + " acquires '" +
                               to + "' (at " + acq.file + ":" +
                               std::to_string(acq.line) + ") while '" +
                               held.expr + "' (locked at line " +
                               std::to_string(held.line) + " in '" + fn.name +
                               "') is held";
            lock_graph_[from].emplace(
                to, LockEdge{from, to, fn.file, c.line, note});
          }
        }
      }
    }
  }
}

void CallGraph::find_cycles() {
  // Tarjan SCCs over the (small) mutex graph, iterating in sorted order so
  // the report is deterministic.
  std::vector<std::string> nodes;
  for (const auto& [from, edges] : lock_graph_) {
    nodes.push_back(from);
    for (const auto& [to, e] : edges) nodes.push_back(to);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());

  std::map<std::string, int> number, lowlink;
  std::vector<std::string> stack;
  std::set<std::string> on_stack;
  int counter = 0;
  std::vector<std::vector<std::string>> sccs;

  std::function<void(const std::string&)> strongconnect =
      [&](const std::string& v) {
        number[v] = lowlink[v] = counter++;
        stack.push_back(v);
        on_stack.insert(v);
        auto it = lock_graph_.find(v);
        if (it != lock_graph_.end()) {
          for (const auto& [w, e] : it->second) {
            if (number.find(w) == number.end()) {
              strongconnect(w);
              lowlink[v] = std::min(lowlink[v], lowlink[w]);
            } else if (on_stack.count(w) != 0) {
              lowlink[v] = std::min(lowlink[v], number[w]);
            }
          }
        }
        if (lowlink[v] == number[v]) {
          std::vector<std::string> scc;
          while (true) {
            const std::string w = stack.back();
            stack.pop_back();
            on_stack.erase(w);
            scc.push_back(w);
            if (w == v) break;
          }
          sccs.push_back(std::move(scc));
        }
      };
  for (const std::string& v : nodes) {
    if (number.find(v) == number.end()) strongconnect(v);
  }

  auto edge_between = [&](const std::string& a,
                          const std::string& b) -> const LockEdge* {
    auto it = lock_graph_.find(a);
    if (it == lock_graph_.end()) return nullptr;
    auto jt = it->second.find(b);
    return jt == it->second.end() ? nullptr : &jt->second;
  };

  for (std::vector<std::string>& scc : sccs) {
    std::sort(scc.begin(), scc.end());
    if (scc.size() == 1) {
      const LockEdge* self = edge_between(scc[0], scc[0]);
      if (self != nullptr) cycles_.push_back({*self});
      continue;
    }
    // Find one representative cycle from the smallest node back to itself,
    // restricted to the SCC.
    const std::set<std::string> members(scc.begin(), scc.end());
    const std::string& start = scc[0];
    std::vector<std::string> path{start};
    std::set<std::string> visited{start};
    std::function<bool()> dfs = [&]() -> bool {
      auto it = lock_graph_.find(path.back());
      if (it == lock_graph_.end()) return false;
      for (const auto& [w, e] : it->second) {
        if (members.count(w) == 0) continue;
        if (w == start && path.size() > 1) return true;
        if (visited.count(w) != 0) continue;
        visited.insert(w);
        path.push_back(w);
        if (dfs()) return true;
        path.pop_back();
      }
      return false;
    };
    if (!dfs()) continue;  // SCC implies a cycle exists; defensive
    std::vector<LockEdge> cycle;
    for (std::size_t i = 0; i < path.size(); ++i) {
      const LockEdge* e =
          edge_between(path[i], path[(i + 1) % path.size()]);
      if (e != nullptr) cycle.push_back(*e);
    }
    cycles_.push_back(std::move(cycle));
  }

  std::sort(cycles_.begin(), cycles_.end(),
            [](const std::vector<LockEdge>& a, const std::vector<LockEdge>& b) {
              if (a.empty() || b.empty()) return b.empty() < a.empty();
              if (a[0].from != b[0].from) return a[0].from < b[0].from;
              if (a[0].file != b[0].file) return a[0].file < b[0].file;
              return a[0].line < b[0].line;
            });
}

}  // namespace conlint
