//! The paper's Figure 1 as ASCII art: one row per chip and per channel,
//! drawn from a recording probe's span events.
//!
//! Figure 1 is a timing diagram: four chips on one shared channel, reads
//! serialized on the channel (channel-bound) versus writes overlapping
//! on the chips (chip-bound). Every grant the flash scheduler makes is
//! already a [`SpanEvent`] on the probe bus, so the figure is a view of
//! those events: a chip row draws its cell operations, a channel row its
//! data transfers.

use std::fmt::Write as _;

use requiem_sim::time::{SimDuration, SimTime};
use requiem_sim::{Cause, Layer, SpanEvent};

/// One drawn span: start and end in ns after the chart's origin, glyph.
type Mark = (u64, u64, char);

/// The glyph `e` is drawn with, or `None` when the figure leaves it
/// out: cell operations on chip rows (`R` read, `P` program, `E` erase)
/// and data transfers on channel rows (`t`). Waits, command cycles,
/// recovery and the host link are not drawn.
fn glyph(e: &SpanEvent) -> Option<char> {
    match (e.layer, e.cause) {
        (Layer::Flash, Cause::CellRead) => Some('R'),
        (Layer::Flash, Cause::CellProgram) => Some('P'),
        (Layer::Flash, Cause::CellErase) => Some('E'),
        (Layer::Channel, Cause::Transfer) => Some('t'),
        _ => None,
    }
}

/// Render the chip and channel rows of `events` with `width` characters
/// of timeline per row, `origin` as time zero (a span that starts before
/// it is clamped to zero). Rows appear in the order their resources
/// first appear in `events`; spans on one row overwrite left to right
/// (a row fed from one serial timeline never overlaps). A time axis
/// closes the chart.
pub fn render(events: &[SpanEvent], origin: SimTime, width: usize) -> String {
    let since = |t: SimTime| t.as_nanos().saturating_sub(origin.as_nanos());
    let mut lanes: Vec<(&str, Vec<Mark>)> = Vec::new();
    for e in events {
        let (Some(glyph), Some(lane)) = (glyph(e), e.resource.as_deref()) else {
            continue;
        };
        let start = since(e.start);
        let span = (start, since(e.end).max(start), glyph);
        match lanes.iter_mut().find(|(l, _)| *l == lane) {
            Some((_, spans)) => spans.push(span),
            None => lanes.push((lane, vec![span])),
        }
    }
    let makespan = lanes
        .iter()
        .flat_map(|(_, spans)| spans)
        .map(|&(_, end, _)| end)
        .max()
        .unwrap_or(0)
        .max(1);
    let width = width.max(10);
    let name_w = lanes.iter().map(|(l, _)| l.len()).max().unwrap_or(4).max(4);
    let scale = |t: u64| (u128::from(t) * width as u128 / u128::from(makespan)) as usize;
    let mut out = String::new();
    for (lane, spans) in &lanes {
        let mut row = vec![' '; width + 1];
        for &(start, end, glyph) in spans {
            let a = scale(start).min(width);
            let b = scale(end).min(width).max(a + 1);
            row[a..b].fill(glyph);
        }
        let row: String = row.into_iter().collect();
        let _ = writeln!(out, "{lane:<name_w$} |{row}|");
    }
    let _ = writeln!(
        out,
        "{:<name_w$} 0{}^ (makespan {})",
        "",
        " ".repeat(width - 1),
        SimDuration::from_nanos(makespan)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, cause: Cause, resource: &str, start_us: u64, end_us: u64) -> SpanEvent {
        SpanEvent {
            cmd: None,
            layer,
            cause,
            resource: Some(resource.to_string()),
            start: SimTime::from_micros(start_us),
            end: SimTime::from_micros(end_us),
        }
    }

    /// The rows of `art`, axis excluded, as `(name, timeline)`.
    fn rows(art: &str) -> Vec<(&str, &str)> {
        art.lines()
            .filter_map(|l| l.split_once(" |"))
            .map(|(name, row)| (name.trim_end(), row))
            .collect()
    }

    #[test]
    fn records_and_orders_lanes() {
        let events = [
            span(Layer::Flash, Cause::Queue, "chip2", 0, 1),
            span(Layer::Flash, Cause::CellRead, "chip1", 0, 2),
            span(Layer::Channel, Cause::Command, "chan0", 2, 3),
            span(Layer::Channel, Cause::Transfer, "chan0", 2, 3),
            span(Layer::HostLink, Cause::Transfer, "host-link", 3, 9),
            span(Layer::Flash, Cause::CellRead, "chip1", 3, 4),
        ];
        let art = render(&events, SimTime::ZERO, 40);
        // a wait, a command cycle and the host link draw no row
        let names: Vec<&str> = rows(&art).iter().map(|r| r.0).collect();
        assert_eq!(names, ["chip1", "chan0"]);
        assert!(art.contains("(makespan 4.00µs)"), "{art}");
    }

    #[test]
    fn render_contains_lanes_and_glyphs() {
        let events = [
            span(Layer::Flash, Cause::CellProgram, "chipA", 0, 5),
            span(Layer::Channel, Cause::Transfer, "chanX", 0, 1),
            span(Layer::Flash, Cause::CellErase, "chipB", 1, 4),
        ];
        let art = render(&events, SimTime::ZERO, 40);
        assert!(art.contains("chipA"));
        assert!(art.contains("chanX"));
        assert!(art.contains('P'));
        assert!(art.contains('t'));
        assert!(art.contains('E'));
        assert!(art.contains("makespan"));
    }

    #[test]
    fn render_scales_span_lengths() {
        // a long span paints many more cells than a short one, and
        // `origin` moves time zero to the first span
        let events = [
            span(Layer::Flash, Cause::CellRead, "long", 50, 60),
            span(Layer::Channel, Cause::Transfer, "short", 50, 51),
        ];
        let art = render(&events, SimTime::from_micros(50), 100);
        let rows = rows(&art);
        let longs = rows[0].1.matches('R').count();
        let shorts = rows[1].1.matches('t').count();
        assert!(longs >= 8 * shorts, "longs={longs} shorts={shorts}");
        assert!(rows[0].1.starts_with('R'), "{art}");
        assert!(art.contains("(makespan 10.00µs)"), "{art}");
    }

    #[test]
    fn empty_chart_renders() {
        let art = render(&[], SimTime::ZERO, 20);
        assert!(art.contains("makespan"));
    }
}
