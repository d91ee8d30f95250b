//! Seeded design generator with answers known by construction.
//!
//! Four parametric families, each in a correct form and a seeded-bug form:
//!
//! | family   | correct target (needs a lemma)       | bug, and where it first fails        |
//! |----------|--------------------------------------|--------------------------------------|
//! | fifo     | `count <= D`, `wptr == rptr -> empty`| `full` at `D+1`: overflow at `D+1`   |
//! | credit   | `snd <= N`                           | `give` unguarded: `snd = N+1` at 1   |
//! | lockstep | `&count1 |-> &count2`                | `count2` skips at `V`: unequal at `V+1` |
//! | offset   | `&lead |-> !(&trail)`                | `trail` jumps at `V`: meets at `V+1` |
//!
//! A bug's cycle is the earliest violation over every input sequence: the
//! fifo count grows by at most one per cycle, the credit pool reaches
//! `N+1` in one give, and the counters have no inputs at all. Each bug
//! also names the constant inputs that reach its violation, so the tests
//! can replay it from reset on the simulator, independent of any solver.

use std::fmt::Write as _;

/// Deterministic splitmix64 stream; the whole benchmark draws from it so
/// one `--seed` fixes every input.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for item `index` of the stream `seed`.
    pub fn derive(seed: u64, index: u64) -> Self {
        let mut r = Rng(seed ^ index.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// The known answer for one target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Answer {
    /// The property holds in every reachable state.
    Holds,
    /// The property first fails at this cycle after reset.
    FailsAt(usize),
}

/// The generator's design families.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// FIFO occupancy control: depth and pointer width.
    Fifo,
    /// Credit-based flow control: credit count and width.
    Credit,
    /// Two counters incremented in lockstep: width.
    Lockstep,
    /// Two counters a constant offset apart: width and offset.
    Offset,
}

/// Size limits for a family's designs.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Smallest register width.
    pub min_width: u32,
    /// Largest register width.
    pub max_width: u32,
    /// Largest FIFO depth, credit count or counter offset (also kept at or
    /// below `2^width - 2`).
    pub max_count: u64,
}

/// A design's size: register width and its FIFO depth, credit count or
/// counter offset (unused by the lockstep counters).
pub type Size = (u32, u64);

/// Every size a design of `family` may take under `sizes`, in a fixed
/// order. Cycling through a shuffle of this list, rather than drawing each
/// size independently, gives every seed the same mix of sizes, so the
/// cost of a run depends on the seed far less than on the code.
pub fn size_grid(family: Family, sizes: Sizes) -> Vec<Size> {
    let mut grid = Vec::new();
    for w in sizes.min_width..=sizes.max_width {
        let top = ((1u64 << w) - 2).min(sizes.max_count);
        match family {
            Family::Fifo | Family::Credit => grid.extend((2..=top).map(|c| (w, c))),
            Family::Offset => grid.extend((1..=top).map(|c| (w, c))),
            Family::Lockstep => grid.push((w, 0)),
        }
    }
    grid
}

/// Shuffles `items` in place (Fisher-Yates over `rng`).
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.range(0, i as u64) as usize);
    }
}

/// A generated design: sources plus the answer for every target.
#[derive(Clone, Debug)]
pub struct Design {
    /// Unique design (and module) name.
    pub name: String,
    /// RTL source.
    pub rtl: String,
    /// Natural-language specification.
    pub spec: String,
    /// `(name, sva)` targets.
    pub targets: Vec<(String, String)>,
    /// The known answer for each target, in target order.
    pub answers: Vec<Answer>,
    /// Inputs held at these values every cycle reach each failing
    /// target's violation at its answer's cycle (unlisted inputs are 0).
    /// Only the replay tests read it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub bug_inputs: Vec<(&'static str, u64)>,
}

/// Builds the design of `family` at `size` named `name`. A bug variant
/// (`bug`) draws its failing cycle from `rng`, at most `max_bug_cycle`;
/// the bug FIFO's depth follows from that cycle. The induction engine
/// checks cycles `0..max_k`, so `max_bug_cycle` is at most `max_k - 1`.
pub fn generate(
    family: Family,
    bug: bool,
    name: &str,
    (w, count): Size,
    max_bug_cycle: usize,
    rng: &mut Rng,
) -> Design {
    // A bug first fails at a cycle in lo..=max_bug_cycle, never past the
    // register range that triggers it.
    let hi = (max_bug_cycle as u64).min((1 << w) - 1);
    let bug_at = |rng: &mut Rng, lo: u64| rng.range(lo, hi.max(lo));
    match family {
        Family::Fifo if bug => {
            // The off-by-one count reaches depth + 1 <= 2^w - 1: it still
            // fits, and pointer differences stay exact modulo 2^w.
            let depth = bug_at(rng, 2) - 1;
            fifo(name, w, depth, depth + 1)
        }
        Family::Fifo => fifo(name, w, count, count),
        Family::Credit => credit(name, w, count, bug),
        Family::Lockstep => lockstep(name, w, bug.then(|| bug_at(rng, 1) - 1)),
        Family::Offset => offset_counters(name, w, count, bug.then(|| bug_at(rng, 1) - 1)),
    }
}

fn lit(w: u32, v: u64) -> String {
    format!("{w}'d{v}")
}

fn fifo(name: &str, w: u32, depth: u64, full_at: u64) -> Design {
    let bug = full_at > depth;
    let mut rtl = String::new();
    let _ = write!(
        rtl,
        "
module {name} (input clk, rst, input wr, rd,
               output logic [{h}:0] wptr, rptr, count,
               output logic full, empty);
  assign full = count == {full};
  assign empty = count == {zero};
  logic do_wr, do_rd;
  assign do_wr = wr && !full;
  assign do_rd = rd && !empty;
  always_ff @(posedge clk) begin
    if (rst) begin
      wptr <= '0;
      rptr <= '0;
      count <= '0;
    end else begin
      wptr <= wptr + (do_wr ? {one} : {zero});
      rptr <= rptr + (do_rd ? {one} : {zero});
      count <= count + (do_wr ? {one} : {zero}) - (do_rd ? {one} : {zero});
    end
  end
endmodule
",
        h = w - 1,
        full = lit(w, full_at),
        zero = lit(w, 0),
        one = lit(w, 1),
    );
    let spec = format!(
        "Control logic of a {depth}-deep synchronous FIFO with {w}-bit pointers: write and \
         read pointers advance on accepted operations and count tracks the occupancy, so the \
         pointer difference always equals count and the FIFO never overflows."
    );
    Design {
        name: name.to_string(),
        rtl,
        spec,
        targets: vec![
            ("no_overflow".into(), format!("count <= {}", lit(w, depth))),
            (
                "pointers_meet_only_when_empty".into(),
                format!("wptr == rptr |-> count == {}", lit(w, 0)),
            ),
        ],
        // Writing every cycle fills one slot per cycle, so the count first
        // passes `depth` at cycle `depth + 1`. The pointer target still
        // holds: the count never wraps, as `depth + 1 < 2^w`.
        answers: if bug {
            vec![Answer::FailsAt(depth as usize + 1), Answer::Holds]
        } else {
            vec![Answer::Holds, Answer::Holds]
        },
        bug_inputs: if bug { vec![("wr", 1)] } else { vec![] },
    }
}

fn credit(name: &str, w: u32, credits: u64, bug: bool) -> Design {
    let give_guard = if bug { "give".to_string() } else { format!("give && rcv != {}", lit(w, 0)) };
    let mut rtl = String::new();
    let _ = write!(
        rtl,
        "
module {name} (input clk, rst, input take, give,
               output logic [{h}:0] snd, rcv);
  logic do_take, do_give;
  assign do_take = take && snd != {zero};
  assign do_give = {give_guard};
  always_ff @(posedge clk) begin
    if (rst) begin
      snd <= {n};
      rcv <= {zero};
    end else begin
      snd <= snd - (do_take ? {one} : {zero}) + (do_give ? {one} : {zero});
      rcv <= rcv + (do_take ? {one} : {zero}) - (do_give ? {one} : {zero});
    end
  end
endmodule
",
        h = w - 1,
        n = lit(w, credits),
        zero = lit(w, 0),
        one = lit(w, 1),
    );
    let spec = format!(
        "Credit-based flow control with {credits} credits in flight: taking a credit moves it \
         from the sender pool to the receiver pool and giving one moves it back, so the two \
         pools always sum to exactly {credits} and neither can exceed {credits}."
    );
    Design {
        name: name.to_string(),
        rtl,
        spec,
        targets: vec![("sender_bounded".into(), format!("snd <= {}", lit(w, credits)))],
        // An unguarded give from an empty receiver pool mints a credit in
        // the first cycle.
        answers: vec![if bug { Answer::FailsAt(1) } else { Answer::Holds }],
        bug_inputs: if bug { vec![("give", 1)] } else { vec![] },
    }
}

fn lockstep(name: &str, w: u32, skip: Option<u64>) -> Design {
    let next2 = match skip {
        Some(v) => {
            format!("(count2 == {}) ? count2 + {} : count2 + {}", lit(w, v), lit(w, 2), lit(w, 1))
        }
        None => format!("count2 + {}", lit(w, 1)),
    };
    let mut rtl = String::new();
    let _ = write!(
        rtl,
        "
module {name} (input clk, rst, output logic [{h}:0] count1, count2);
  always @(posedge clk or posedge rst) begin
    if (rst) begin
      count1 <= {zero};
      count2 <= {zero};
    end else begin
      count1 <= count1 + {one};
      count2 <= {next2};
    end
  end
endmodule
",
        h = w - 1,
        zero = lit(w, 0),
        one = lit(w, 1),
    );
    let spec = format!(
        "Two synchronized {w}-bit counters. Both reset to zero and increment together every \
         cycle, so their values are always equal."
    );
    let (target, answer) = match skip {
        // count2 leaves count1 behind in the cycle after it reaches `v`.
        Some(v) => ("count1 == count2".to_string(), Answer::FailsAt(v as usize + 1)),
        None => ("&count1 |-> &count2".to_string(), Answer::Holds),
    };
    Design {
        name: name.to_string(),
        rtl,
        spec,
        targets: vec![("equal_count".into(), target)],
        answers: vec![answer],
        bug_inputs: vec![],
    }
}

fn offset_counters(name: &str, w: u32, offset: u64, jump: Option<u64>) -> Design {
    let next_trail = match jump {
        Some(v) => format!(
            "(trail == {}) ? trail + {} : trail + {}",
            lit(w, v),
            lit(w, offset + 1),
            lit(w, 1)
        ),
        None => format!("trail + {}", lit(w, 1)),
    };
    let mut rtl = String::new();
    let _ = write!(
        rtl,
        "
module {name} (input clk, rst, output logic [{h}:0] lead, trail);
  always @(posedge clk or posedge rst) begin
    if (rst) begin
      lead  <= {o};
      trail <= {zero};
    end else begin
      lead  <= lead + {one};
      trail <= {next_trail};
    end
  end
endmodule
",
        h = w - 1,
        o = lit(w, offset),
        zero = lit(w, 0),
        one = lit(w, 1),
    );
    let spec = format!(
        "Two {w}-bit counters where `lead` starts {offset} ahead of `trail` and both increment \
         every cycle; the distance stays exactly {offset} forever."
    );
    let (target, answer) = match jump {
        // trail catches up with lead in the cycle after it reaches `v`.
        Some(v) => ("lead != trail".to_string(), Answer::FailsAt(v as usize + 1)),
        None => ("&lead |-> !(&trail)".to_string(), Answer::Holds),
    };
    Design {
        name: name.to_string(),
        rtl,
        spec,
        targets: vec![("never_both_full".into(), target)],
        answers: vec![answer],
        bug_inputs: vec![],
    }
}
