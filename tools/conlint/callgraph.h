// Pass 2 foundation: transitive queries over the ProjectIndex.
//
// Resolution is by spelled name. Free and `ns::`-qualified calls resolve to
// every indexed function of that name (preferring methods of the caller's
// own class / its bases for unqualified calls); `.`/`->` member calls
// resolve to every indexed method of that name, narrowed to the receiver's
// class when its type is known. Every rule walks member calls too: for
// lock-order and transitive-determinism, missing an edge is worse than
// walking a few extra candidates.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "index.h"

namespace conlint {

class CallGraph {
 public:
  explicit CallGraph(const ProjectIndex& index);

  // Candidate callee ids for `call` made from `caller`.
  std::vector<std::size_t> resolve(const FunctionDef& caller,
                                   const CallSite& call) const;

  // --- transitive-determinism -----------------------------------------------

  struct TaintResult {
    bool found = false;
    bool source_exempt = false;  // the randomness sits in an exempt file
    std::string chain;
    std::string what;
  };
  // Whether a randomness source is reachable from `call`, and the chain
  // rendered as "f (file:line) -> g (file:line) -> <what> at file:line".
  TaintResult taint_chain(const FunctionDef& caller,
                          const CallSite& call) const;

  // --- lock-order -------------------------------------------------------------

  struct LockEdge {
    std::string from;      // mutex id held
    std::string to;        // mutex id acquired under it
    std::string file;      // where the `to` acquisition happens (or starts)
    int line = 0;
    std::string note;      // human evidence, incl. interprocedural hops
  };
  // Cycles in the acquisition-order graph, canonicalised (each cycle starts
  // at its lexicographically smallest mutex; one cycle per SCC).
  const std::vector<std::vector<LockEdge>>& lock_cycles() const {
    return cycles_;
  }

  // Resolved mutex identity for functions()[fn].locks[lock]:
  // "Class::member", "file#function::local", "file::global", or
  // "" when unresolvable (such sites form no edges).
  const std::string& mutex_id(std::size_t fn, std::size_t lock) const {
    return lock_ids_[fn][lock];
  }

 private:
  struct Reach {               // memoised reachability of a property
    int state = 0;             // 0 unknown / 1 visiting / 2 no / 3 yes
    int via_call = -1;         // index into calls when reached transitively
    int via_target = -1;       // the resolved callee that carries it
    int site = -1;             // index into randoms when direct
  };

  bool taint_reachable(std::size_t fn, std::vector<Reach>& memo) const;
  void resolve_mutexes(const ProjectIndex& index);
  void build_lock_graph();
  void find_cycles();

  const ProjectIndex& index_;
  std::vector<std::vector<std::string>> lock_ids_;  // parallel to locks
  mutable std::vector<Reach> taint_memo_;
  // Transitively acquired mutexes per function: id -> (file, line, chain).
  struct Acquire {
    std::string file;
    int line = 0;
    std::string chain;  // "" for a direct acquisition
  };
  std::vector<std::map<std::string, Acquire>> closure_;
  std::set<std::string> recursive_ids_;  // ids of recursive_mutex members
  std::map<std::string, std::map<std::string, LockEdge>> lock_graph_;
  std::vector<std::vector<LockEdge>> cycles_;
};

}  // namespace conlint
