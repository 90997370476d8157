//! Vocabulary: bidirectional token ↔ id mapping.
//!
//! Ids are dense `u32`s assigned in first-seen order, so a vocabulary built
//! from a deterministic corpus scan is itself deterministic. The vocabulary
//! doubles as the primitive domain `Z` for keyword LFs: primitive id ==
//! token id.

use std::collections::BTreeMap;

/// Bidirectional token ↔ dense-id mapping.
#[derive(Debug, Clone, Default)]
pub struct Vocab {
    token_to_id: BTreeMap<String, u32>,
    id_to_token: Vec<String>,
}

impl Vocab {
    /// Empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an iterator of documents (token lists), keeping tokens
    /// with document frequency ≥ `min_df`. Ids follow first-seen order of
    /// the retained tokens, over documents in iteration order, with each
    /// document's distinct tokens visited in sorted `&str` order.
    pub fn build<'a, I, D>(docs: I, min_df: usize) -> Self
    where
        I: IntoIterator<Item = D> + Clone,
        D: IntoIterator<Item = &'a str>,
    {
        // First pass: document frequencies in first-seen order.
        let mut df: BTreeMap<String, usize> = BTreeMap::new();
        let mut order: Vec<String> = Vec::new();
        for doc in docs.clone() {
            let mut seen: Vec<&str> = doc.into_iter().collect();
            seen.sort_unstable();
            seen.dedup();
            for tok in seen {
                match df.get_mut(tok) {
                    Some(c) => *c += 1,
                    None => {
                        df.insert(tok.to_string(), 1);
                        order.push(tok.to_string());
                    }
                }
            }
        }
        let mut vocab = Vocab::new();
        for tok in order {
            if df[&tok] >= min_df {
                vocab.add(&tok);
            }
        }
        vocab
    }

    /// Insert `token` if absent; returns its id either way.
    pub fn add(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.token_to_id.get(token) {
            return id;
        }
        let id = self.id_to_token.len() as u32;
        self.token_to_id.insert(token.to_string(), id);
        self.id_to_token.push(token.to_string());
        id
    }

    /// Look up a token's id.
    pub fn id(&self, token: &str) -> Option<u32> {
        self.token_to_id.get(token).copied()
    }

    /// Look up a token by id.
    pub fn token(&self, id: u32) -> Option<&str> {
        self.id_to_token.get(id as usize).map(String::as_str)
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.id_to_token.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.id_to_token.is_empty()
    }

    /// Map a token list to ids preserving order and multiplicity (OOV
    /// tokens dropped) — the input format for TF-IDF counting.
    pub fn encode_seq(&self, tokens: &[impl AsRef<str>]) -> Vec<u32> {
        tokens.iter().filter_map(|t| self.id(t.as_ref())).collect()
    }

    /// All tokens in id order.
    pub fn tokens(&self) -> &[String] {
        &self.id_to_token
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup_roundtrip() {
        let mut v = Vocab::new();
        let a = v.add("hello");
        let b = v.add("world");
        assert_eq!(v.add("hello"), a);
        assert_eq!(v.id("world"), Some(b));
        assert_eq!(v.token(a), Some("hello"));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn build_respects_min_df() {
        let docs = [vec!["a", "b"], vec!["a", "c"], vec!["a", "b"]];
        let v = Vocab::build(docs.iter().map(|d| d.iter().copied()), 2);
        assert!(v.id("a").is_some());
        assert!(v.id("b").is_some());
        assert!(v.id("c").is_none());
    }

    #[test]
    fn build_df_counts_docs_not_tokens() {
        // "a" appears 3 times but only in one doc.
        let docs = [vec!["a", "a", "a"], vec!["b"]];
        let v = Vocab::build(docs.iter().map(|d| d.iter().copied()), 2);
        assert!(v.id("a").is_none());
    }

    #[test]
    fn ids_are_first_seen_order() {
        let docs = [vec!["z", "m"], vec!["a", "z"]];
        let v = Vocab::build(docs.iter().map(|d| d.iter().copied()), 1);
        assert_eq!(v.id("m"), Some(0)); // sorted within doc: m before z
        assert_eq!(v.id("z"), Some(1));
        assert_eq!(v.id("a"), Some(2));
    }

    #[test]
    fn encode_seq_preserves_multiplicity() {
        let mut v = Vocab::new();
        v.add("x");
        let ids = v.encode_seq(&["x", "x", "oov", "x"]);
        assert_eq!(ids, vec![0, 0, 0]);
    }

    #[test]
    fn empty_vocab() {
        let v = Vocab::new();
        assert!(v.is_empty());
        assert_eq!(v.id("anything"), None);
        assert_eq!(v.token(0), None);
    }
}
