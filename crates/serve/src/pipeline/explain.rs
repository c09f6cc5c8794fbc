//! Per-request explanations derived from candidate provenance.
//!
//! Every candidate that survives to the final ranking carries the
//! [`SourceId`] stamped on it at emission time. Only when an explanation
//! is requested does `ServingEngine::recommend_explained` derive a
//! [`Reason`] from that source's serving slot — the anchor book
//! ([`anchor_book`]) for Closest Items, the read count for Most Read —
//! so the serving path without explanations computes none. An
//! [`Explanation`] is the source and reason attached to one recommended
//! book, and the `explain` CLI subcommand renders it as a reader-facing
//! sentence ("because you borrowed X").

use super::sources::SourceId;
use rm_core::closest::ClosestItems;
use rm_sparse::vecops;

/// Why a book was recommended — derived from the serving slot of the
/// source that proposed it, and rendered for the reader by the
/// explanation layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reason {
    /// Readers with a similar borrowing history also read it.
    CfNeighbours,
    /// Its metadata is close to a book the user borrowed.
    SimilarToBorrowed {
        /// The borrowed book the recommendation is anchored to.
        anchor: u32,
    },
    /// It is among the library's most-read books.
    MostRead {
        /// Training-set read count.
        count: u64,
    },
    /// An exploration pick with no model-specific story (Random Items).
    Exploration,
}

/// The borrowed book most representative of the user's taste: the seen
/// book whose embedding is most similar to the (normalised) centroid of
/// everything they borrowed. Ties break toward the lower book index;
/// `None` for an empty history.
#[must_use]
pub fn anchor_book(closest: &ClosestItems, seen: &[u32]) -> Option<u32> {
    if seen.is_empty() {
        return None;
    }
    let store = closest.store();
    let centroid = store.centroid(seen);
    let mut best: Option<(u32, f32)> = None;
    for &b in seen {
        let sim = vecops::dot(&centroid, store.embedding(b as usize));
        let better = match best {
            None => true,
            Some((_, best_sim)) => sim > best_sim,
        };
        if better {
            best = Some((b, sim));
        }
    }
    best.map(|(b, _)| b)
}

/// Why one recommended book was recommended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Explanation {
    /// The recommended book.
    pub book: u32,
    /// The source whose provenance won the merge for this book.
    pub source: SourceId,
    /// Why that source's slot recommends the book.
    pub reason: Reason,
}

impl Explanation {
    /// Renders the reason as a reader-facing sentence fragment. `title`
    /// resolves a book index to a display title (the CLI passes a
    /// corpus-backed closure; tests pass an index formatter).
    #[must_use]
    pub fn render(&self, title: &dyn Fn(u32) -> String) -> String {
        match self.reason {
            Reason::CfNeighbours => {
                "because readers with a borrowing history like yours also read it".to_owned()
            }
            Reason::SimilarToBorrowed { anchor } => {
                format!("because you borrowed {}", title(anchor))
            }
            Reason::MostRead { count } => {
                format!("because it is one of the library's most-read books ({count} readings)")
            }
            Reason::Exploration => "an exploration pick to broaden your shelf".to_owned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_anchor_title_for_content_similarity() {
        let ex = Explanation {
            book: 4,
            source: SourceId::ContentSimilar,
            reason: Reason::SimilarToBorrowed { anchor: 9 },
        };
        let rendered = ex.render(&|b| format!("book-{b}"));
        assert_eq!(rendered, "because you borrowed book-9");
    }

    #[test]
    fn renders_read_count_for_popularity() {
        let ex = Explanation {
            book: 1,
            source: SourceId::MostRead,
            reason: Reason::MostRead { count: 37 },
        };
        assert!(ex.render(&|_| String::new()).contains("37 readings"));
    }
}
