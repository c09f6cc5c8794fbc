//! Deterministic merge/dedup of per-source candidate emissions.
//!
//! Stage two of the serving pipeline: the per-source candidate lists
//! from [`crate::pipeline::sources`] are pooled into one deduplicated
//! list. The pool is built over a dense table indexed by book: one
//! marking pass over the emissions, then one ascending walk of the mark
//! bits, so the output order is ascending book index regardless of how
//! many sources ran or in which order their emissions arrive — a hard
//! determinism requirement (DESIGN.md §15). When two sources propose the
//! same book the *first* source's provenance wins, so the explanation a
//! reader sees always names the highest-priority signal that suggested
//! the book.

use super::sources::{Candidate, SourceId};

/// Reusable dense book table for [`MergeTable::merge_into`].
///
/// Holds one mark bit and one first-proposing source per book index,
/// growing to the largest book index merged so far (about 1.1 bytes per
/// book). Every merge leaves all mark bits clear, so one table serves
/// any number of users in turn without a clearing pass.
#[derive(Debug, Default)]
pub(crate) struct MergeTable {
    /// Bit `b % 64` of word `b / 64` is set while book `b` is pooled.
    marks: Vec<u64>,
    /// The source that first proposed each book. Only read under a set
    /// mark bit, so fill values and stale entries from earlier users
    /// are never seen.
    sources: Vec<SourceId>,
}

impl MergeTable {
    /// Merges per-source emissions for one user into `pool`,
    /// deduplicating by book with first-source-wins provenance. `pool`
    /// is cleared and refilled in ascending book order.
    pub(crate) fn merge_into<'a, I>(&mut self, emissions: I, pool: &mut Vec<Candidate>)
    where
        I: IntoIterator<Item = &'a [Candidate]>,
    {
        for emission in emissions {
            for &cand in emission {
                let book = cand.book as usize;
                let (word, bit) = (book / 64, 1u64 << (book % 64));
                if word >= self.marks.len() {
                    self.marks.resize(word + 1, 0);
                    self.sources
                        .resize(self.marks.len() * 64, SourceId::CfNeighbours);
                }
                if self.marks[word] & bit == 0 {
                    self.marks[word] |= bit;
                    self.sources[book] = cand.source;
                }
            }
        }
        pool.clear();
        for (word, marks) in self.marks.iter_mut().enumerate() {
            let mut bits = std::mem::take(marks);
            while bits != 0 {
                let book = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                pool.push(Candidate {
                    book: book as u32,
                    source: self.sources[book],
                });
            }
        }
    }
}

/// Merges per-source emissions for one user into `pool`, deduplicating
/// by book with first-source-wins provenance. `pool` is cleared and
/// refilled in ascending book order. Runs the engine's merge on a fresh
/// book table, which costs memory proportional to the largest book
/// index emitted.
pub fn merge_into<'a, I>(emissions: I, pool: &mut Vec<Candidate>)
where
    I: IntoIterator<Item = &'a [Candidate]>,
{
    MergeTable::default().merge_into(emissions, pool);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ModelSlot;
    use proptest::collection::vec;
    use proptest::{prop_assert, prop_assert_eq};

    fn cand(book: u32, source: SourceId) -> Candidate {
        Candidate { book, source }
    }

    #[test]
    fn merge_dedups_and_sorts_by_book() {
        let a = [
            cand(5, SourceId::CfNeighbours),
            cand(2, SourceId::CfNeighbours),
        ];
        let b = [cand(2, SourceId::MostRead), cand(9, SourceId::MostRead)];
        let mut pool = vec![cand(99, SourceId::MostRead)]; // stale content is cleared
        merge_into([a.as_slice(), b.as_slice()], &mut pool);
        let books: Vec<u32> = pool.iter().map(|c| c.book).collect();
        assert_eq!(books, vec![2, 5, 9]);
    }

    #[test]
    fn first_source_wins_provenance() {
        let a = [cand(7, SourceId::CfNeighbours)];
        let b = [cand(7, SourceId::MostRead)];
        let mut pool = Vec::new();
        merge_into([a.as_slice(), b.as_slice()], &mut pool);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool[0].source, SourceId::CfNeighbours);
        // And the winner does not depend on per-emission candidate order,
        // only on emission order.
        merge_into([b.as_slice(), a.as_slice()], &mut pool);
        assert_eq!(pool[0].source, SourceId::MostRead);
    }

    #[test]
    fn empty_emissions_yield_empty_pool() {
        let mut pool = vec![cand(1, SourceId::CfNeighbours)];
        merge_into(std::iter::empty::<&[Candidate]>(), &mut pool);
        assert!(pool.is_empty());
    }

    /// The reference merge: a `BTreeMap` keyed by book, first entry wins.
    fn btree_merge(emissions: &[Vec<Candidate>]) -> Vec<Candidate> {
        let mut by_book = std::collections::BTreeMap::new();
        for emission in emissions {
            for &c in emission {
                by_book.entry(c.book).or_insert(c);
            }
        }
        by_book.into_values().collect()
    }

    const SOURCES: [SourceId; 6] = [
        SourceId::CfNeighbours,
        SourceId::ContentSimilar,
        SourceId::MostRead,
        SourceId::Fallback(ModelSlot::Bpr),
        SourceId::Fallback(ModelSlot::MostRead),
        SourceId::Fallback(ModelSlot::Random),
    ];

    /// One user's drawn emissions: per emission a keep flag (0 empties
    /// it) and `(book, source)` pairs.
    type Raw = Vec<(u32, Vec<(u32, usize)>)>;

    fn raw_emissions() -> impl proptest::strategy::Strategy<Value = Raw> {
        vec(
            (0u32..3, vec((0u32..4000, 0usize..SOURCES.len()), 0..300)),
            0..5,
        )
    }

    /// Maps drawn pairs onto candidates over books `offset..offset +
    /// span`: a small span forces duplicates within and across
    /// emissions, a large one spreads books over many table words, and
    /// users with different offsets share no books.
    fn emissions(raw: &Raw, offset: u32, span: u32) -> Vec<Vec<Candidate>> {
        raw.iter()
            .map(|(keep, pairs)| {
                pairs
                    .iter()
                    .filter(|_| *keep != 0)
                    .map(|&(b, s)| cand(offset + b % span, SOURCES[s]))
                    .collect()
            })
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn table_merge_matches_btree_merge(
            (offset, span) in (0u32..4000, 1u32..4000),
            raw in raw_emissions(),
        ) {
            let emissions = emissions(&raw, offset, span);
            let mut pool = Vec::new();
            merge_into(emissions.iter().map(Vec::as_slice), &mut pool);
            prop_assert_eq!(pool, btree_merge(&emissions));
        }

        #[test]
        fn reused_table_leaks_nothing_between_users(
            users in vec(((0u32..4000, 1u32..4000), raw_emissions()), 1..8),
        ) {
            // One table serves a sequence of users whose books overlap or
            // sit apart, above and below each other.
            let mut table = MergeTable::default();
            let mut pool = Vec::new();
            for ((offset, span), raw) in &users {
                let emissions = emissions(raw, *offset, *span);
                table.merge_into(emissions.iter().map(Vec::as_slice), &mut pool);
                prop_assert_eq!(&pool, &btree_merge(&emissions));
            }
            prop_assert!(table.marks.iter().all(|&w| w == 0), "mark bits left set");
        }
    }
}
