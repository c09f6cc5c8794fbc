//! The answer validator behind `failed`: every served list is checked
//! against the serving contract before it counts as a success.

use rm_serve::pipeline::BookGenres;
use std::fmt;

/// Why an answer fails the contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No books for a user the engine knows.
    Empty,
    /// Fewer than `k` books although `possible` valid books exist.
    Short { len: usize, possible: usize },
    /// A book appears twice.
    Duplicate(u32),
    /// A book the user already borrowed.
    Seen(u32),
    /// A book index outside the catalogue.
    OutOfRange(u32),
    /// More than the cap of books share one primary genre.
    GenreCap { genre: Option<u8>, count: usize },
}

impl Fault {
    /// Whether the answer breaks what the engine guarantees for every
    /// list. A short list does not: the pipeline serves what its filters
    /// leave, so a list under `k` is a failed request (it counts in
    /// `failed`) but not an incorrect output.
    pub fn breaks_contract(&self) -> bool {
        !matches!(self, Self::Short { .. })
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => write!(f, "empty answer"),
            Self::Short { len, possible } => {
                write!(f, "{len} books although {possible} were possible")
            }
            Self::Duplicate(b) => write!(f, "book {b} repeated"),
            Self::Seen(b) => write!(f, "book {b} already borrowed"),
            Self::OutOfRange(b) => write!(f, "book {b} outside the catalogue"),
            Self::GenreCap { genre, count } => write!(f, "{count} books of genre {genre:?}"),
        }
    }
}

/// The contract one workload's answers must meet.
#[derive(Debug, Clone, Copy)]
pub struct Validator<'a> {
    pub n_books: usize,
    pub k: usize,
    /// `Some((cap, genres))` when a diversity cap is configured.
    pub genre_cap: Option<(usize, &'a BookGenres)>,
}

/// Genre bucket of a book: its primary genre, or one shared bucket for
/// books without one (the bucketing the diversity-cap filter applies).
fn bucket(genres: &BookGenres, book: u32) -> usize {
    genres.primary(book).map_or(256, usize::from)
}

impl Validator<'_> {
    /// Checks one answer for a user whose borrowed books are `seen`
    /// (ascending).
    pub fn check(&self, seen: &[u32], answer: &[u32]) -> Result<(), Fault> {
        if answer.is_empty() {
            return Err(Fault::Empty);
        }
        let mut sorted = answer.to_vec();
        sorted.sort_unstable();
        for pair in sorted.windows(2) {
            if pair[0] == pair[1] {
                return Err(Fault::Duplicate(pair[0]));
            }
        }
        for &b in answer {
            if b as usize >= self.n_books {
                return Err(Fault::OutOfRange(b));
            }
            if seen.binary_search(&b).is_ok() {
                return Err(Fault::Seen(b));
            }
        }
        if let Some((cap, genres)) = self.genre_cap {
            let mut counts = [0usize; 257];
            for &b in answer {
                let g = bucket(genres, b);
                counts[g] += 1;
                if counts[g] > cap {
                    return Err(Fault::GenreCap {
                        genre: genres.primary(b),
                        count: counts[g],
                    });
                }
            }
        }
        if answer.len() < self.k {
            let possible = self.possible(seen);
            if answer.len() < possible {
                return Err(Fault::Short {
                    len: answer.len(),
                    possible,
                });
            }
        }
        Ok(())
    }

    /// The longest valid answer for this user: `k` capped by the unseen
    /// books, and under a genre cap by `cap` books per genre bucket.
    fn possible(&self, seen: &[u32]) -> usize {
        let unseen = (0..self.n_books as u32).filter(|b| seen.binary_search(b).is_err());
        let reachable = match self.genre_cap {
            None => unseen.count(),
            Some((cap, genres)) => {
                let mut counts = [0usize; 257];
                for b in unseen {
                    counts[bucket(genres, b)] += 1;
                }
                counts.iter().map(|&c| c.min(cap)).sum()
            }
        };
        reachable.min(self.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain(n_books: usize, k: usize) -> Validator<'static> {
        Validator {
            n_books,
            k,
            genre_cap: None,
        }
    }

    #[test]
    fn accepts_a_full_valid_answer() {
        assert_eq!(plain(10, 3).check(&[0, 1], &[5, 2, 9]), Ok(()));
    }

    #[test]
    fn rejects_empty_duplicate_seen_and_out_of_range() {
        let v = plain(10, 3);
        assert_eq!(v.check(&[], &[]), Err(Fault::Empty));
        assert_eq!(v.check(&[], &[4, 2, 4]), Err(Fault::Duplicate(4)));
        assert_eq!(v.check(&[1, 3], &[2, 3, 5]), Err(Fault::Seen(3)));
        assert_eq!(v.check(&[], &[2, 10, 5]), Err(Fault::OutOfRange(10)));
    }

    #[test]
    fn short_list_fails_only_when_more_books_exist() {
        let v = plain(10, 3);
        assert_eq!(
            v.check(&[], &[1, 2]),
            Err(Fault::Short {
                len: 2,
                possible: 3
            })
        );
        // Only books 8 and 9 are unseen: two books is the whole answer.
        assert_eq!(v.check(&[0, 1, 2, 3, 4, 5, 6, 7], &[9, 8]), Ok(()));
    }

    #[test]
    fn genre_cap_limits_books_per_genre() {
        // Books 0-3 are genre 0, 4-5 genre 1, 6 has no genre.
        let genres = BookGenres::new(vec![
            Some(0),
            Some(0),
            Some(0),
            Some(0),
            Some(1),
            Some(1),
            None,
        ]);
        let v = Validator {
            n_books: 7,
            k: 6,
            genre_cap: Some((2, &genres)),
        };
        assert_eq!(
            v.check(&[], &[0, 1, 2]),
            Err(Fault::GenreCap {
                genre: Some(0),
                count: 3
            })
        );
        // Two per genre plus the one unlabelled book: five is the most a
        // capped answer can hold.
        assert_eq!(v.check(&[], &[0, 1, 4, 5, 6]), Ok(()));
        assert_eq!(
            v.check(&[], &[0, 1, 4, 5]),
            Err(Fault::Short {
                len: 4,
                possible: 5
            })
        );
    }
}
