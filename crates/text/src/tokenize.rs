//! Whitespace/punctuation tokenizer with lowercasing.
//!
//! The synthetic generators emit pre-tokenized documents, but the public API
//! accepts raw strings (as a real deployment would), so the facade and the
//! examples run text through this tokenizer first.

/// Tokenize a string: lowercase, split on any non-alphanumeric character,
/// drop empty tokens and tokens longer than 64 bytes (noise guard).
pub fn tokenize(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty() && t.len() <= 64)
        .map(|t| t.to_lowercase())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_punctuation() {
        assert_eq!(
            tokenize("Perfect, for my work-outs!"),
            vec!["perfect", "for", "my", "work", "outs"]
        );
    }

    #[test]
    fn lowercases() {
        assert_eq!(tokenize("GREAT Product"), vec!["great", "product"]);
    }

    #[test]
    fn empty_input() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("  ,,, !!").is_empty());
    }

    #[test]
    fn keeps_digits() {
        assert_eq!(tokenize("win 1000 dollars"), vec!["win", "1000", "dollars"]);
    }

    #[test]
    fn drops_very_long_tokens() {
        let long = "a".repeat(65);
        assert!(tokenize(&long).is_empty());
        let ok = "a".repeat(64);
        assert_eq!(tokenize(&ok).len(), 1);
    }
}
