//! Candidate filters: the business-rule stage of the serving pipeline.
//!
//! After merge/dedup, each [`CandidateFilter`] gets one in-place pass
//! over the pooled candidates (`Vec::retain`-style), in the order the
//! filters were configured. Filters are pure functions of the
//! [`FilterCtx`] and the pool — no I/O, no clock — so a fixed
//! configuration filters identically on every run (DESIGN.md §15).
//! A filter that lacks its inputs (e.g. a genre filter with no
//! [`BookGenres`] configured) must degrade to a no-op rather than
//! guess.

use super::sources::{BookGenres, Candidate};
use rm_dataset::ids::UserIdx;
use std::fmt;

/// Per-user inputs a filter may consult.
#[derive(Debug, Clone, Copy)]
pub struct FilterCtx<'a> {
    /// The user being served.
    pub user: UserIdx,
    /// The user's training-set reading history, ascending book order.
    pub seen: &'a [u32],
    /// Catalogue genre lookup, when the engine was configured with one.
    pub genres: Option<&'a BookGenres>,
}

/// One business rule applied to the merged candidate pool.
pub trait CandidateFilter: Send + Sync + fmt::Debug {
    /// Short identifier for logs and diagnostics.
    fn name(&self) -> &'static str;

    /// Drops candidates from `pool` in place. The pool arrives in
    /// ascending book order (the merge stage's output order) and the
    /// relative order of survivors must be preserved.
    fn retain(&self, ctx: &FilterCtx<'_>, pool: &mut Vec<Candidate>);
}

/// Drops books the user has already borrowed. Every bundled source
/// excludes the seen set on its own; this filter is the safety net for
/// external sources that do not.
#[derive(Debug, Clone, Copy, Default)]
pub struct AlreadyBorrowedFilter;

impl CandidateFilter for AlreadyBorrowedFilter {
    fn name(&self) -> &'static str {
        "already-borrowed"
    }

    fn retain(&self, ctx: &FilterCtx<'_>, pool: &mut Vec<Candidate>) {
        // Pool and seen list both ascend, so one cursor into `seen`
        // advances alongside the pool walk.
        let seen = ctx.seen;
        let mut at = 0;
        pool.retain(|c| {
            while seen.get(at).is_some_and(|&s| s < c.book) {
                at += 1;
            }
            seen.get(at) != Some(&c.book)
        });
    }
}

/// Keeps only books whose primary genre is on an allowlist — the
/// "language/type" style catalogue restriction (e.g. a children's-room
/// kiosk that only surfaces a few genres). No-op when the engine has no
/// [`BookGenres`] configured.
#[derive(Debug, Clone)]
pub struct GenreFilter {
    allowed: Vec<u8>,
}

impl GenreFilter {
    /// Restricts candidates to the given aggregated genre ids.
    #[must_use]
    pub fn new(mut allowed: Vec<u8>) -> Self {
        allowed.sort_unstable();
        allowed.dedup();
        Self { allowed }
    }
}

impl CandidateFilter for GenreFilter {
    fn name(&self) -> &'static str {
        "genre"
    }

    fn retain(&self, ctx: &FilterCtx<'_>, pool: &mut Vec<Candidate>) {
        let Some(genres) = ctx.genres else {
            return;
        };
        pool.retain(|c| {
            genres
                .primary(c.book)
                .is_some_and(|g| self.allowed.binary_search(&g).is_ok())
        });
    }
}

/// Caps how many candidates any single primary genre may contribute, so
/// one dominant genre cannot crowd the pool. The pool arrives in
/// ascending book order, so the surviving books per genre are the
/// lowest-indexed ones — deterministic by construction. Books with no
/// primary genre share one "unknown" bucket. No-op when the engine has
/// no [`BookGenres`] configured.
#[derive(Debug, Clone, Copy)]
pub struct DiversityCapFilter {
    max_per_genre: usize,
}

impl DiversityCapFilter {
    /// Caps each primary genre's pool share at `max_per_genre`.
    #[must_use]
    pub fn new(max_per_genre: usize) -> Self {
        Self { max_per_genre }
    }
}

impl CandidateFilter for DiversityCapFilter {
    fn name(&self) -> &'static str {
        "diversity-cap"
    }

    fn retain(&self, ctx: &FilterCtx<'_>, pool: &mut Vec<Candidate>) {
        let Some(genres) = ctx.genres else {
            return;
        };
        // 256 genre buckets plus one for books without a primary genre.
        let mut counts = [0usize; 257];
        pool.retain(|c| {
            let bucket = genres.primary(c.book).map_or(256, usize::from);
            counts[bucket] += 1;
            counts[bucket] <= self.max_per_genre
        });
    }
}

#[cfg(test)]
mod tests {
    use super::super::sources::SourceId;
    use super::*;

    fn cand(book: u32) -> Candidate {
        Candidate {
            book,
            source: SourceId::MostRead,
        }
    }

    fn genres() -> BookGenres {
        // books 0,1,2 -> genre 0; book 3 -> genre 1; book 4 -> unlabelled.
        BookGenres::new(vec![Some(0), Some(0), Some(0), Some(1), None])
    }

    fn ctx<'a>(seen: &'a [u32], genres: Option<&'a BookGenres>) -> FilterCtx<'a> {
        FilterCtx {
            user: UserIdx(0),
            seen,
            genres,
        }
    }

    #[test]
    fn already_borrowed_drops_seen_books() {
        let mut pool = vec![cand(1), cand(2), cand(3)];
        AlreadyBorrowedFilter.retain(&ctx(&[0, 2], None), &mut pool);
        let books: Vec<u32> = pool.iter().map(|c| c.book).collect();
        assert_eq!(books, vec![1, 3]);
    }

    #[test]
    fn already_borrowed_walks_seen_alongside_the_pool() {
        let books = |pool: &[Candidate]| pool.iter().map(|c| c.book).collect::<Vec<u32>>();
        let fresh = || vec![cand(3), cand(5), cand(8), cand(9), cand(14)];
        // Seen books before the first, between, on, and after the last
        // pool book.
        let mut pool = fresh();
        AlreadyBorrowedFilter.retain(&ctx(&[0, 1, 4, 5, 6, 7, 9, 20, 30], None), &mut pool);
        assert_eq!(books(&pool), vec![3, 8, 14]);
        let mut pool = fresh();
        AlreadyBorrowedFilter.retain(&ctx(&[3, 14], None), &mut pool);
        assert_eq!(books(&pool), vec![5, 8, 9]);
        let mut pool = fresh();
        AlreadyBorrowedFilter.retain(&ctx(&[], None), &mut pool);
        assert_eq!(books(&pool), books(&fresh()));
    }

    #[test]
    fn genre_filter_keeps_allowed_genres_only() {
        let g = genres();
        let mut pool = vec![cand(0), cand(3), cand(4)];
        GenreFilter::new(vec![1]).retain(&ctx(&[], Some(&g)), &mut pool);
        let books: Vec<u32> = pool.iter().map(|c| c.book).collect();
        assert_eq!(books, vec![3], "unlabelled books never pass an allowlist");
    }

    #[test]
    fn genre_filter_without_lookup_is_a_noop() {
        let mut pool = vec![cand(0), cand(3)];
        GenreFilter::new(vec![1]).retain(&ctx(&[], None), &mut pool);
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn diversity_cap_keeps_lowest_indices_per_genre() {
        let g = genres();
        let mut pool = vec![cand(0), cand(1), cand(2), cand(3)];
        DiversityCapFilter::new(2).retain(&ctx(&[], Some(&g)), &mut pool);
        let books: Vec<u32> = pool.iter().map(|c| c.book).collect();
        assert_eq!(
            books,
            vec![0, 1, 3],
            "genre 0 capped at two, genre 1 untouched"
        );
    }
}
