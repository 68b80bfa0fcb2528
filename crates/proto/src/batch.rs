//! The two item-carrying messages, `StreamItemBatch` and `Deliver`, as a
//! relay sees them: a small header in front of a list of encoded items.
//!
//! A super-peer mostly passes streams through. [`BatchView::parse`] is one
//! validating pass over a received payload that builds no tree: it checks
//! everything [`Message::decode`] checks — in fact it *is* the parser
//! `Message::decode` runs for these two tags, which then calls
//! [`BatchView::materialise`] — and yields the header fields plus an
//! item-boundary index over the untouched bytes. A relay forwards by
//! writing a fresh [`BatchHeader`] (next `hop`, possibly a trimmed
//! `offset`) in front of the item bytes it received; only a consumer — a
//! hosted operator, the client — materialises.

use dss_xml::Node;

use crate::wire::{put_bool, put_str, put_u32, put_u64, Reader};
use crate::{DecodeError, Message, TAG_DELIVER, TAG_STREAM_ITEM_BATCH};

/// Where a batch is headed: the fields in which `StreamItemBatch` and
/// `Deliver` differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchDest<'a> {
    /// `StreamItemBatch`: `flow`'s output arriving at route hop `hop`.
    Hop { flow: u64, hop: u32 },
    /// `Deliver`: result items of subscribed query `query`.
    Query(&'a str),
}

/// Everything in front of a batch's items. See
/// [`Message::StreamItemBatch`] and [`Message::Deliver`] for the fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchHeader<'a> {
    pub run: u64,
    pub dest: BatchDest<'a>,
    pub offset: u64,
    pub eos: bool,
}

impl<'a> BatchHeader<'a> {
    /// Appends the message tag and header fields; the item list (count,
    /// then each item) follows.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self.dest {
            BatchDest::Hop { flow, hop } => {
                out.push(TAG_STREAM_ITEM_BATCH);
                put_u64(out, self.run);
                put_u64(out, flow);
                put_u32(out, hop);
            }
            BatchDest::Query(query) => {
                out.push(TAG_DELIVER);
                put_u64(out, self.run);
                put_str(out, query);
            }
        }
        put_u64(out, self.offset);
        put_bool(out, self.eos);
    }

    fn decode(r: &mut Reader<'a>) -> Result<BatchHeader<'a>, DecodeError> {
        let tag = r.u8()?;
        if !matches!(tag, TAG_STREAM_ITEM_BATCH | TAG_DELIVER) {
            return Err(DecodeError::BadTag(tag));
        }
        let run = r.u64()?;
        let dest = if tag == TAG_STREAM_ITEM_BATCH {
            BatchDest::Hop {
                flow: r.u64()?,
                hop: r.u32()?,
            }
        } else {
            BatchDest::Query(r.str_ref()?)
        };
        Ok(BatchHeader {
            run,
            dest,
            offset: r.u64()?,
            eos: r.bool()?,
        })
    }
}

/// A validated item list, still encoded: the received bytes plus where
/// each item starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemsView<'a> {
    payload: &'a [u8],
    /// Item `i` of the received list is `payload[index[i]..index[i + 1]]`.
    index: Vec<usize>,
    /// Leading items of the received list this view no longer covers.
    skipped: usize,
}

impl<'a> ItemsView<'a> {
    pub fn len(&self) -> usize {
        self.index.len() - 1 - self.skipped
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops the first `n` items from the view (all of them if it holds
    /// fewer): a slice of the boundary index, the bytes stay where they are.
    pub fn skip(&mut self, n: usize) {
        self.skipped += n.min(self.len());
    }

    /// The items' encodings, back to back, exactly as received.
    pub fn bytes(&self) -> &'a [u8] {
        &self.payload[self.index[self.skipped]..self.index[self.index.len() - 1]]
    }

    /// Appends the list as it goes on the wire: count, then the items.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.len() as u64);
        out.extend_from_slice(self.bytes());
    }

    /// Builds the items' trees, without checking the bytes a second time.
    pub fn materialise(&self) -> Vec<Node> {
        let mut r = Reader::new(self.bytes());
        // SAFETY: an `ItemsView` is made only by a successful
        // `BatchView::parse` (its fields are private), whose
        // `Reader::skip_nodes` accepted every string in these bytes as
        // UTF-8 — one by one, or all at once as ASCII.
        unsafe { r.trusted_items(self.len()) }.expect("the view validated these bytes")
    }
}

/// A received `StreamItemBatch` or `Deliver`, validated but not decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchView<'a> {
    pub header: BatchHeader<'a>,
    pub items: ItemsView<'a>,
}

impl<'a> BatchView<'a> {
    /// Whether `payload` is tagged as one of the two item-carrying
    /// messages — the payloads [`BatchView::parse`] is for.
    pub fn is_batch(payload: &[u8]) -> bool {
        matches!(
            payload.first(),
            Some(&(TAG_STREAM_ITEM_BATCH | TAG_DELIVER))
        )
    }

    /// Validates an item-batch payload without building a tree. Accepts
    /// and rejects exactly what [`Message::decode`] does, with the same
    /// error; any other message's tag is a [`DecodeError::BadTag`].
    pub fn parse(payload: &'a [u8]) -> Result<BatchView<'a>, DecodeError> {
        let mut r = Reader::new(payload);
        let header = BatchHeader::decode(&mut r)?;
        let index = r.skip_nodes()?;
        r.finish()?;
        Ok(BatchView {
            header,
            items: ItemsView {
                payload,
                index,
                skipped: 0,
            },
        })
    }

    /// The owned message this view stands for.
    pub fn materialise(&self) -> Message {
        let BatchHeader {
            run,
            dest,
            offset,
            eos,
        } = self.header;
        let items = self.items.materialise();
        match dest {
            BatchDest::Hop { flow, hop } => Message::StreamItemBatch {
                run,
                flow,
                hop,
                offset,
                eos,
                items,
            },
            BatchDest::Query(query) => Message::Deliver {
                run,
                query: query.to_owned(),
                offset,
                eos,
                items,
            },
        }
    }
}
