//! Hierarchical topics and wildcard filters.
//!
//! Topics are slash-separated paths (`session/42/video/ssrc-9`). Filters
//! may use `*` to match exactly one segment and a trailing `#` to match
//! any remainder (including none) — the JMS-style grammar NaradaBrokering
//! exposed. [`SubscriptionTable`] maps filters to subscribers with a trie
//! so that matching a publish against thousands of subscriptions is a
//! single path walk.
//!
//! A [`Topic`] is parsed once and then shared: its segments live in one
//! reference-counted allocation beside a hash computed at parse time, so
//! cloning a topic, keying a route plan by it or comparing two clones
//! never walks or copies its text. A receiver that sees the same topic
//! text again and again (a federation node decoding remote events) keeps
//! a table from text to `Topic` and parses each text only once.

use core::cmp::Ordering;
use core::fmt;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// A concrete topic path (no wildcards).
///
/// The segments are one shared `Arc<[Arc<str>]>`, hashed once when the
/// topic is built with one process-wide keyed hasher. A clone is one
/// reference-count bump; [`Hash`] writes that one precomputed `u64`;
/// equality compares pointers first and the segments only when the
/// pointers differ and the hashes agree. Deriving an exact filter from a
/// topic shares its segment strings instead of copying them. Ordering is
/// segment-wise, as for a list of strings.
///
/// # Examples
///
/// ```
/// use mmcs_broker::topic::Topic;
///
/// let t = Topic::parse("session/42/video")?;
/// assert_eq!(t.segments().len(), 3);
/// assert_eq!(t.to_string(), "session/42/video");
/// assert_eq!(t.clone(), Topic::parse("session/42/video")?);
/// # Ok::<(), mmcs_broker::topic::ParseTopicError>(())
/// ```
#[derive(Clone)]
pub struct Topic {
    segments: Arc<[Arc<str>]>,
    /// `segments` hashed by [`topic_hasher`] when the topic was built.
    hash: u64,
}

/// The one keyed hasher every topic's hash comes from. Its keys are
/// random per process, so topic hashes resist chosen-collision floods as
/// a default `HashMap` key would.
fn topic_hasher() -> &'static RandomState {
    static HASHER: OnceLock<RandomState> = OnceLock::new();
    HASHER.get_or_init(RandomState::new)
}

impl Topic {
    fn from_shared(segments: Arc<[Arc<str>]>) -> Topic {
        let hash = topic_hasher().hash_one(&*segments);
        Topic { segments, hash }
    }

    /// Parses a slash-separated topic path. Allocates the segment list
    /// and each segment, and nothing else.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTopicError`] if the path is empty, has empty
    /// segments, or contains wildcard characters (`*`, `#`).
    pub fn parse(path: &str) -> Result<Topic, ParseTopicError> {
        if path.is_empty() {
            return Err(ParseTopicError::Empty);
        }
        let mut count = 0;
        let mut wildcard = false;
        for segment in path.split('/') {
            if segment.is_empty() {
                return Err(ParseTopicError::EmptySegment);
            }
            wildcard |= segment == "*" || segment == "#";
            count += 1;
        }
        if wildcard {
            return Err(ParseTopicError::WildcardInTopic);
        }
        // A counted range makes the collect size the shared slice once.
        let mut parts = path.split('/');
        let segments = (0..count)
            .map(|_| Arc::from(parts.next().unwrap_or_default()))
            .collect();
        Ok(Topic::from_shared(segments))
    }

    /// Builds a topic from pre-validated segments.
    ///
    /// # Panics
    ///
    /// Panics if any segment is empty or a wildcard.
    pub fn from_segments<I, S>(segments: I) -> Topic
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let segments: Vec<Arc<str>> = segments
            .into_iter()
            .map(|s| Arc::from(s.as_ref()))
            .collect();
        assert!(!segments.is_empty(), "topic must have at least one segment");
        for segment in &segments {
            assert!(
                !segment.is_empty()
                    && &**segment != "*"
                    && &**segment != "#"
                    && !segment.contains('/'),
                "invalid topic segment {segment:?}"
            );
        }
        Topic::from_shared(segments.into())
    }

    /// The path segments.
    pub fn segments(&self) -> &[Arc<str>] {
        &self.segments
    }

    /// Appends a segment, returning a child topic. The parent's segment
    /// strings are shared, not copied.
    pub fn child(&self, segment: impl AsRef<str>) -> Topic {
        let segment = segment.as_ref();
        assert!(
            !segment.is_empty() && !segment.contains('/'),
            "invalid topic segment"
        );
        let segments = self
            .segments
            .iter()
            .cloned()
            .chain(std::iter::once(Arc::from(segment)))
            .collect();
        Topic::from_shared(segments)
    }
}

impl PartialEq for Topic {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.segments, &other.segments)
            || (self.hash == other.hash && self.segments == other.segments)
    }
}

impl Eq for Topic {}

impl Hash for Topic {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialOrd for Topic {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Topic {
    fn cmp(&self, other: &Self) -> Ordering {
        self.segments.cmp(&other.segments)
    }
}

impl fmt::Debug for Topic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Topic")
            .field("segments", &self.segments())
            .finish()
    }
}

impl fmt::Display for Topic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for segment in self.segments.iter() {
            if !first {
                f.write_str("/")?;
            }
            first = false;
            f.write_str(segment)?;
        }
        Ok(())
    }
}

impl std::str::FromStr for Topic {
    type Err = ParseTopicError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Topic::parse(s)
    }
}

/// One filter pattern segment.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum FilterSegment {
    Literal(Arc<str>),
    /// `*`: exactly one segment.
    Single,
}

/// A subscription filter: literal segments, `*` wildcards, and an
/// optional trailing `#` matching any remainder.
///
/// # Examples
///
/// ```
/// use mmcs_broker::topic::{Topic, TopicFilter};
///
/// let f = TopicFilter::parse("session/*/video/#")?;
/// assert!(f.matches(&Topic::parse("session/1/video")?));
/// assert!(f.matches(&Topic::parse("session/1/video/ssrc/5")?));
/// assert!(!f.matches(&Topic::parse("session/1/audio")?));
/// # Ok::<(), mmcs_broker::topic::ParseTopicError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TopicFilter {
    segments: Vec<FilterSegment>,
    tail: bool,
}

impl TopicFilter {
    /// Parses a filter pattern.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTopicError`] if the pattern is empty, has empty
    /// segments, or uses `#` anywhere but the final segment.
    pub fn parse(pattern: &str) -> Result<TopicFilter, ParseTopicError> {
        let raw = split_segments(pattern)?;
        let mut segments = Vec::with_capacity(raw.len());
        let mut tail = false;
        for (i, segment) in raw.iter().enumerate() {
            match &**segment {
                "#" => {
                    if i != raw.len() - 1 {
                        return Err(ParseTopicError::HashNotLast);
                    }
                    tail = true;
                }
                "*" => segments.push(FilterSegment::Single),
                _ => segments.push(FilterSegment::Literal(segment.clone())),
            }
        }
        if segments.is_empty() && !tail {
            return Err(ParseTopicError::Empty);
        }
        Ok(TopicFilter { segments, tail })
    }

    /// A filter matching exactly one topic. Shares the topic's interned
    /// segment storage — no string is copied.
    pub fn exact(topic: &Topic) -> TopicFilter {
        TopicFilter {
            segments: topic
                .segments()
                .iter()
                .map(|s| FilterSegment::Literal(Arc::clone(s)))
                .collect(),
            tail: false,
        }
    }

    /// Whether this filter matches a concrete topic.
    pub fn matches(&self, topic: &Topic) -> bool {
        let t = topic.segments();
        if self.tail {
            if t.len() < self.segments.len() {
                return false;
            }
        } else if t.len() != self.segments.len() {
            return false;
        }
        self.segments.iter().zip(t).all(|(f, s)| match f {
            FilterSegment::Literal(lit) => **lit == **s,
            FilterSegment::Single => true,
        })
    }

    /// Whether this filter contains any wildcard.
    pub fn has_wildcards(&self) -> bool {
        self.tail || self.segments.contains(&FilterSegment::Single)
    }

    /// The literal first segment this filter requires, or `None` when
    /// the head is a wildcard (`*`, or a bare `#`) and any first segment
    /// can match. The sharded runtime keys shard ownership on a topic's
    /// first segment, so a `Some` head pins a filter's interest to one
    /// shard while `None` means every shard may own matching topics.
    pub fn first_literal(&self) -> Option<&str> {
        match self.segments.first() {
            Some(FilterSegment::Literal(lit)) => Some(lit),
            _ => None,
        }
    }

    /// Orders two filters as their [`Display`](fmt::Display) texts
    /// compare, without writing either text out.
    pub(crate) fn cmp_text(&self, other: &TopicFilter) -> Ordering {
        self.text_bytes().cmp(other.text_bytes())
    }

    /// The bytes of this filter's display text, one at a time.
    fn text_bytes(&self) -> impl Iterator<Item = u8> + '_ {
        let piece = |i: usize| match self.segments.get(i) {
            Some(FilterSegment::Literal(lit)) => lit.as_bytes(),
            Some(FilterSegment::Single) => b"*",
            None => b"#",
        };
        (0..self.segments.len() + usize::from(self.tail)).flat_map(move |i| {
            let separator: &[u8] = if i == 0 { b"" } else { b"/" };
            [separator, piece(i)].into_iter().flatten().copied()
        })
    }
}

impl fmt::Display for TopicFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for segment in &self.segments {
            if !first {
                f.write_str("/")?;
            }
            first = false;
            match segment {
                FilterSegment::Literal(lit) => f.write_str(lit)?,
                FilterSegment::Single => f.write_str("*")?,
            }
        }
        if self.tail {
            if !first {
                f.write_str("/")?;
            }
            f.write_str("#")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for TopicFilter {
    type Err = ParseTopicError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        TopicFilter::parse(s)
    }
}

fn split_segments(path: &str) -> Result<Vec<Arc<str>>, ParseTopicError> {
    if path.is_empty() {
        return Err(ParseTopicError::Empty);
    }
    let mut segments = Vec::new();
    for segment in path.split('/') {
        if segment.is_empty() {
            return Err(ParseTopicError::EmptySegment);
        }
        segments.push(Arc::from(segment));
    }
    Ok(segments)
}

/// Error parsing a topic or filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseTopicError {
    /// The path was empty.
    Empty,
    /// A segment between slashes was empty.
    EmptySegment,
    /// A concrete topic contained `*` or `#`.
    WildcardInTopic,
    /// `#` appeared before the final segment.
    HashNotLast,
}

impl fmt::Display for ParseTopicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseTopicError::Empty => write!(f, "empty topic path"),
            ParseTopicError::EmptySegment => write!(f, "empty topic segment"),
            ParseTopicError::WildcardInTopic => write!(f, "wildcard in concrete topic"),
            ParseTopicError::HashNotLast => write!(f, "'#' must be the final segment"),
        }
    }
}

impl std::error::Error for ParseTopicError {}

/// Trie node for the subscription table.
#[derive(Debug, Clone)]
struct TrieNode<S> {
    children: HashMap<Arc<str>, TrieNode<S>>,
    single: Option<Box<TrieNode<S>>>,
    /// Subscribers whose filter ends exactly here.
    here: Vec<S>,
    /// Subscribers whose filter ends here with a `#` tail.
    tail: Vec<S>,
}

impl<S> TrieNode<S> {
    /// Whether the node holds no subscriber and leads to none.
    fn is_empty(&self) -> bool {
        self.children.is_empty() && self.single.is_none() && self.here.is_empty() && self.tail.is_empty()
    }

    /// Nodes in this subtree, this one included.
    #[cfg(test)]
    fn count(&self) -> usize {
        1 + self.children.values().map(TrieNode::count).sum::<usize>()
            + self.single.as_ref().map_or(0, |single| single.count())
    }
}

impl<S> Default for TrieNode<S> {
    fn default() -> Self {
        Self {
            children: HashMap::new(),
            single: None,
            here: Vec::new(),
            tail: Vec::new(),
        }
    }
}

/// Maps filters to subscribers; matching walks the trie once.
///
/// `S` is the subscriber handle type (a client id, a broker link id, …).
#[derive(Debug, Clone)]
pub struct SubscriptionTable<S> {
    root: TrieNode<S>,
    len: usize,
}

impl<S: Clone + PartialEq> SubscriptionTable<S> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self {
            root: TrieNode::default(),
            len: 0,
        }
    }

    /// Number of (filter, subscriber) entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds a subscription. Duplicate (filter, subscriber) pairs are
    /// ignored; returns whether the entry was inserted.
    pub fn subscribe(&mut self, filter: &TopicFilter, subscriber: S) -> bool {
        let node = Self::descend(&mut self.root, &filter.segments);
        let bucket = if filter.tail { &mut node.tail } else { &mut node.here };
        if bucket.contains(&subscriber) {
            return false;
        }
        bucket.push(subscriber);
        self.len += 1;
        true
    }

    /// Removes a subscription; returns whether it existed. Creates no
    /// node, and prunes the nodes the removal leaves empty, so the trie
    /// holds only the filters currently subscribed.
    pub fn unsubscribe(&mut self, filter: &TopicFilter, subscriber: &S) -> bool {
        let removed = Self::remove(&mut self.root, &filter.segments, filter.tail, subscriber);
        if removed {
            self.len -= 1;
        }
        removed
    }

    fn remove(node: &mut TrieNode<S>, segments: &[FilterSegment], tail: bool, subscriber: &S) -> bool {
        let Some((head, rest)) = segments.split_first() else {
            let bucket = if tail { &mut node.tail } else { &mut node.here };
            let Some(pos) = bucket.iter().position(|s| s == subscriber) else {
                return false;
            };
            bucket.swap_remove(pos);
            return true;
        };
        match head {
            FilterSegment::Literal(lit) => {
                let Some(child) = node.children.get_mut(&**lit) else {
                    return false;
                };
                if !Self::remove(child, rest, tail, subscriber) {
                    return false;
                }
                if child.is_empty() {
                    node.children.remove(&**lit);
                }
            }
            FilterSegment::Single => {
                let Some(single) = node.single.as_deref_mut() else {
                    return false;
                };
                if !Self::remove(single, rest, tail, subscriber) {
                    return false;
                }
                if single.is_empty() {
                    node.single = None;
                }
            }
        }
        true
    }

    fn descend<'a>(mut node: &'a mut TrieNode<S>, segments: &[FilterSegment]) -> &'a mut TrieNode<S> {
        for segment in segments {
            node = match segment {
                FilterSegment::Literal(lit) => node.children.entry(Arc::clone(lit)).or_default(),
                FilterSegment::Single => node.single.get_or_insert_with(Default::default),
            };
        }
        node
    }
}

impl<S: Clone + Ord> SubscriptionTable<S> {
    /// All subscribers whose filter matches `topic`, deduplicated and
    /// sorted.
    pub fn matches(&self, topic: &Topic) -> Vec<S> {
        let mut out = Vec::new();
        self.matches_into(topic, &mut out);
        out
    }

    /// Appends every subscriber whose filter matches `topic` to `out`,
    /// deduplicated and sorted. Only the appended region is touched, so
    /// callers can reuse one buffer across publishes without clearing
    /// unrelated contents — the allocation-free counterpart of
    /// [`matches`](Self::matches).
    ///
    /// Dedup is sort-based over the appended region: the walk pushes raw
    /// hits (a subscriber reachable through both a literal and a `*`
    /// path appears twice), then one `sort_unstable` + in-place compact
    /// replaces the old `contains`-scan-per-push, which was quadratic in
    /// fan-out.
    pub fn matches_into(&self, topic: &Topic, out: &mut Vec<S>) {
        let start = out.len();
        Self::walk(&self.root, topic.segments(), out);
        // `start <= out.len()` always holds (walk only appends); `get_mut`
        // keeps the hot route-planning path free of panicking indexing.
        let Some(appended) = out.get_mut(start..) else {
            return;
        };
        if appended.is_empty() {
            return;
        }
        appended.sort_unstable();
        // Compact the sorted region in place (Vec::dedup for a suffix):
        // `write` points at the last kept element, `read` scans ahead.
        let mut write = 0;
        for read in 1..appended.len() {
            if appended.get(read) != appended.get(write) {
                write += 1;
                appended.swap(write, read);
            }
        }
        out.truncate(start + write + 1);
    }

    fn walk(node: &TrieNode<S>, rest: &[Arc<str>], out: &mut Vec<S>) {
        // A `#` at this node matches the remainder, whatever it is.
        out.extend(node.tail.iter().cloned());
        let Some((head, tail)) = rest.split_first() else {
            out.extend(node.here.iter().cloned());
            return;
        };
        if let Some(child) = node.children.get(&**head) {
            Self::walk(child, tail, out);
        }
        if let Some(single) = &node.single {
            Self::walk(single, tail, out);
        }
    }
}

impl<S: Clone + PartialEq> Default for SubscriptionTable<S> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topic(s: &str) -> Topic {
        Topic::parse(s).unwrap()
    }

    fn filter(s: &str) -> TopicFilter {
        TopicFilter::parse(s).unwrap()
    }

    #[test]
    fn topic_parse_and_display() {
        let t = topic("a/b/c");
        let segments: Vec<&str> = t.segments().iter().map(|s| &**s).collect();
        assert_eq!(segments, ["a", "b", "c"]);
        assert_eq!(t.to_string(), "a/b/c");
        assert_eq!(t.child("d").to_string(), "a/b/c/d");
    }

    #[test]
    fn topic_parse_errors() {
        assert_eq!(Topic::parse(""), Err(ParseTopicError::Empty));
        assert_eq!(Topic::parse("a//b"), Err(ParseTopicError::EmptySegment));
        assert_eq!(Topic::parse("a/*"), Err(ParseTopicError::WildcardInTopic));
        assert_eq!(Topic::parse("#"), Err(ParseTopicError::WildcardInTopic));
        assert_eq!(Topic::parse("/a"), Err(ParseTopicError::EmptySegment));
    }

    #[test]
    fn filter_parse_errors() {
        assert_eq!(TopicFilter::parse(""), Err(ParseTopicError::Empty));
        assert_eq!(
            TopicFilter::parse("a/#/b"),
            Err(ParseTopicError::HashNotLast)
        );
        assert_eq!(TopicFilter::parse("a//b"), Err(ParseTopicError::EmptySegment));
    }

    #[test]
    fn exact_filter_matches_only_itself() {
        let f = TopicFilter::exact(&topic("x/y"));
        assert!(f.matches(&topic("x/y")));
        assert!(!f.matches(&topic("x/y/z")));
        assert!(!f.matches(&topic("x")));
        assert!(!f.has_wildcards());
    }

    #[test]
    fn star_matches_exactly_one_segment() {
        let f = filter("a/*/c");
        assert!(f.matches(&topic("a/b/c")));
        assert!(f.matches(&topic("a/zzz/c")));
        assert!(!f.matches(&topic("a/c")));
        assert!(!f.matches(&topic("a/b/b/c")));
        assert!(f.has_wildcards());
    }

    #[test]
    fn hash_matches_any_remainder_including_none() {
        let f = filter("a/#");
        assert!(f.matches(&topic("a")));
        assert!(f.matches(&topic("a/b")));
        assert!(f.matches(&topic("a/b/c/d")));
        assert!(!f.matches(&topic("b")));
        // Bare `#` matches everything.
        let all = filter("#");
        assert!(all.matches(&topic("a")));
        assert!(all.matches(&topic("a/b/c")));
    }

    #[test]
    fn filter_display_round_trips() {
        for pattern in ["a/b", "a/*/c", "a/#", "#", "*/x/#"] {
            assert_eq!(filter(pattern).to_string(), pattern);
            // Reparse must be identical.
            assert_eq!(filter(&filter(pattern).to_string()), filter(pattern));
        }
    }

    #[test]
    fn table_basic_subscribe_and_match() {
        let mut table: SubscriptionTable<u32> = SubscriptionTable::new();
        assert!(table.subscribe(&filter("session/7/video"), 1));
        assert!(table.subscribe(&filter("session/7/*"), 2));
        assert!(table.subscribe(&filter("session/#"), 3));
        assert!(table.subscribe(&filter("other/#"), 4));
        assert_eq!(table.len(), 4);

        let hit = table.matches(&topic("session/7/video"));
        assert_eq!(hit.len(), 3);
        assert!(hit.contains(&1) && hit.contains(&2) && hit.contains(&3));
        // Matches come back sorted (sort-based dedup).
        assert_eq!(table.matches(&topic("session/7/audio")), vec![2, 3]);
        assert_eq!(table.matches(&topic("zzz")), Vec::<u32>::new());
    }

    #[test]
    fn duplicate_subscription_is_ignored() {
        let mut table: SubscriptionTable<u32> = SubscriptionTable::new();
        assert!(table.subscribe(&filter("a/b"), 1));
        assert!(!table.subscribe(&filter("a/b"), 1));
        assert_eq!(table.len(), 1);
        assert_eq!(table.matches(&topic("a/b")), vec![1]);
    }

    #[test]
    fn overlapping_filters_dedup_subscriber() {
        let mut table: SubscriptionTable<u32> = SubscriptionTable::new();
        table.subscribe(&filter("a/#"), 1);
        table.subscribe(&filter("a/b"), 1);
        assert_eq!(table.matches(&topic("a/b")), vec![1]);
    }

    #[test]
    fn unsubscribe_removes_entry() {
        let mut table: SubscriptionTable<u32> = SubscriptionTable::new();
        table.subscribe(&filter("a/*"), 1);
        assert!(table.unsubscribe(&filter("a/*"), &1));
        assert!(!table.unsubscribe(&filter("a/*"), &1));
        assert!(table.matches(&topic("a/b")).is_empty());
        assert!(table.is_empty());
    }

    #[test]
    fn unsubscribe_leaves_no_trace() {
        let mut table: SubscriptionTable<u32> = SubscriptionTable::new();
        table.subscribe(&filter("keep/*/x"), 7);
        let kept = table.root.count();
        for i in 0..10_000 {
            let f = filter(&format!("s/{}/*/{}/#", i % 97, i));
            assert!(table.subscribe(&f, i));
            assert!(table.unsubscribe(&f, &i));
        }
        for i in 0..1_000 {
            assert!(!table.unsubscribe(&filter(&format!("never/{i}/*")), &i));
        }
        assert_eq!(table.root.count(), kept);
        assert!(table.unsubscribe(&filter("keep/*/x"), &7));
        assert_eq!(table.root.count(), 1, "only the root is left");
        assert!(table.is_empty());
        assert!(table.matches(&topic("keep/a/x")).is_empty());
    }

    /// Oracle check: trie matching agrees with direct filter matching.
    #[test]
    fn table_agrees_with_naive_oracle() {
        use mmcs_util::rng::DetRng;
        let mut rng = DetRng::new(99);
        let segs = ["a", "b", "c", "*"];
        let mut table: SubscriptionTable<usize> = SubscriptionTable::new();
        let mut filters = Vec::new();
        for id in 0..200 {
            let depth = rng.range_usize(1, 4);
            let mut parts: Vec<String> = (0..depth)
                .map(|_| (*rng.pick(&segs)).to_owned())
                .collect();
            if rng.chance(0.3) {
                parts.push("#".to_owned());
            }
            let f = filter(&parts.join("/"));
            table.subscribe(&f, id);
            filters.push((f, id));
        }
        let lits = ["a", "b", "c", "d"];
        for _ in 0..500 {
            let depth = rng.range_usize(1, 5);
            let t = Topic::from_segments((0..depth).map(|_| (*rng.pick(&lits)).to_owned()));
            let mut expected: Vec<usize> = filters
                .iter()
                .filter(|(f, _)| f.matches(&t))
                .map(|(_, id)| *id)
                .collect();
            expected.dedup();
            let mut actual = table.matches(&t);
            expected.sort_unstable();
            actual.sort_unstable();
            assert_eq!(actual, expected, "topic {t}");
        }
    }
}
