//! The two item-carrying messages, `StreamItemBatch` and `Deliver`, as a
//! relay sees them: a small header in front of a list of encoded items.
//!
//! A super-peer mostly passes streams through. [`BatchView::parse`] reads
//! a received payload's header and its item framing — the count, and each
//! item's length against the bytes left — and yields the header fields
//! plus an item-boundary index over the untouched bytes, reading no item.
//! A relay forwards by writing a fresh [`BatchHeader`] (next `hop`,
//! possibly a trimmed `offset`) in front of the item bytes it received.
//! Only a consumer — a hosted operator, the client — reads the items, in
//! the one checked pass [`ItemsView::materialise`]; `Message::decode` is
//! `parse` followed by that pass.

use dss_xml::Node;

use crate::wire::{put_bool, put_str, put_u32, put_u64, Reader, Tree};
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

/// A framed item list, still encoded: the received bytes plus where each
/// item starts. The items themselves are unread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemsView<'a> {
    payload: &'a [u8],
    /// Item `i` of the received list (its length, then its node) is
    /// `payload[index[i]..index[i + 1]]`.
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

    /// Reads the items and builds their trees: the one checked pass. Each
    /// node must fill its item's declared length exactly; the first item
    /// that does not, or that is malformed, is the error.
    pub fn materialise(&self) -> Result<Vec<Node>, DecodeError> {
        let mut list = Reader::new(self.bytes());
        let mut out = Vec::with_capacity(self.len());
        let mut tree = Tree::default();
        for _ in 0..self.len() {
            let mut item = Reader::item(list.bytes()?);
            out.push(item.walk(0, &mut tree)?);
            item.finish()?;
        }
        Ok(out)
    }
}

/// A received `StreamItemBatch` or `Deliver`, framed but not decoded.
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

    /// Reads an item-batch payload's header and item framing, and no item:
    /// O(items). It rejects a header [`Message::decode`] rejects, a count
    /// the bytes left cannot back (every item takes at least its length
    /// byte), an item length past the payload and trailing bytes, with
    /// `decode`'s error; whatever is wrong *inside* an item is left to
    /// [`ItemsView::materialise`]. Any other message's tag is a
    /// [`DecodeError::BadTag`].
    pub fn parse(payload: &'a [u8]) -> Result<BatchView<'a>, DecodeError> {
        let mut r = Reader::new(payload);
        let header = BatchHeader::decode(&mut r)?;
        let count = r.u64()?;
        if count > (payload.len() - r.position()) as u64 {
            return Err(DecodeError::UnexpectedEnd);
        }
        let mut index = Vec::with_capacity((count as usize).min(1024) + 1);
        for _ in 0..count {
            index.push(r.position());
            r.bytes()?;
        }
        index.push(r.position());
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

    /// The owned message this view stands for, its items read by
    /// [`ItemsView::materialise`].
    pub fn materialise(&self) -> Result<Message, DecodeError> {
        let BatchHeader {
            run,
            dest,
            offset,
            eos,
        } = self.header;
        let items = self.items.materialise()?;
        Ok(match dest {
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
        })
    }
}
