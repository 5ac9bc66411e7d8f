#ifndef MARITIME_COMMON_ANNOTATIONS_H_
#define MARITIME_COMMON_ANNOTATIONS_H_

/// Annotation vocabulary of the project-specific static-analysis pass
/// (`tools/lint/maritime_lint.py`, DESIGN.md §12). The macros expand to
/// nothing; the linter keys off the macro names themselves.
///
/// Placement grammar (enforced by convention, relied upon by the linter):
///   - class/struct:  `class MARITIME_ARENA_SCOPED Arena { ... };`
///   - alias:         `using PointVec MARITIME_ARENA_SCOPED = ...;`
///   - function:      `MARITIME_ARENA_ESCAPE_OK FluentTimeline Compute(...);`
///     (leading position, before the return type)
///   - data member:   `MARITIME_ARENA_ESCAPE_OK FluentTimeline empty_;`
///
/// Inline suppressions, for single call/iteration sites where an annotation
/// does not fit, carry a mandatory reason:
///   `// maritime-lint: allow(<rule>): <why this is sound>`
/// (or `allow-next-line(<rule>)` on the preceding line, or
/// `allow-file(<rule>)` once near the top of a file).

/// Marks a type whose instances may be backed by a slide-scoped
/// `common::Arena`: views, allocators, and containers whose storage is
/// invalidated wholesale at `Arena::Reset()`. The arena-escape rule flags any
/// data member of (or function returning) such a type outside another
/// arena-scoped type, unless the escape is certified with
/// `MARITIME_ARENA_ESCAPE_OK`. Alias types whose definition mentions an
/// arena-scoped type are arena-scoped transitively (no annotation needed).
#define MARITIME_ARENA_SCOPED

/// Certifies one deliberate escape of an arena-scoped type: a member that is
/// provably heap-backed (default-constructed allocator) or a function whose
/// returned value/reference is committed heap state produced by the
/// copy-out-at-commit rule (DESIGN.md §10). Every use must be accompanied by
/// a comment saying why the backing is not arena memory.
#define MARITIME_ARENA_ESCAPE_OK

/// Marks a function that commits per-slide scratch into long-lived state
/// (the engine's definition-commit helpers, `Recognize` itself). Inside such
/// functions the determinism rule flags range-iteration over unordered
/// containers whose visitation order could leak into committed state, unless
/// the iteration result is sorted before escaping (a `std::sort` later in the
/// same body) or the site carries an `allow(determinism)` with a reason.
#define MARITIME_COMMIT_BOUNDARY

/// Marks a function that serializes state to an external medium (snapshot
/// writers, bench JSON emitters): byte-for-byte determinism is part of the
/// format contract (DESIGN.md §9), so the determinism rule applies exactly as
/// for MARITIME_COMMIT_BOUNDARY.
#define MARITIME_OUTPUT_PATH

#endif  // MARITIME_COMMON_ANNOTATIONS_H_
