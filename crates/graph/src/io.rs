//! DIMACS-format graph I/O.
//!
//! Reads and writes the classic DIMACS maximum-flow format (`p max N M`,
//! `n <id> s|t`, `a <from> <to> <cap>`, 1-indexed), so instances from
//! standard benchmark suites can be fed to the max-flow pipeline.

use std::error::Error;
use std::fmt;

use crate::DiGraph;

/// A parsed DIMACS max-flow instance.
#[derive(Debug, Clone)]
pub struct MaxFlowInstance {
    /// The capacitated digraph (0-indexed).
    pub graph: DiGraph,
    /// Source vertex.
    pub source: usize,
    /// Sink vertex.
    pub sink: usize,
}

/// DIMACS parsing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DimacsError {
    /// The `p` problem line is missing or malformed.
    MissingProblemLine,
    /// A line could not be parsed.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        reason: String,
    },
    /// The instance lacks a source or sink designation (max-flow).
    MissingTerminals,
}

impl fmt::Display for DimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DimacsError::MissingProblemLine => write!(f, "missing dimacs problem line"),
            DimacsError::Malformed { line, reason } => {
                write!(f, "malformed dimacs line {line}: {reason}")
            }
            DimacsError::MissingTerminals => write!(f, "instance lacks source/sink lines"),
        }
    }
}

impl Error for DimacsError {}

/// Largest `N` a `p max N M` line may declare. The graph is allocated
/// as soon as the problem line is read, so an absurd count must be
/// refused before it reaches [`DiGraph::new`]. 2²⁰ is far above the
/// largest clique the pipelines simulate (n = 2048).
const MAX_DIMACS_VERTICES: usize = 1 << 20;

fn parse_fields(line: &str) -> Vec<&str> {
    line.split_whitespace().collect()
}

/// Parses a DIMACS max-flow instance from text.
///
/// The problem line may declare at most 2²⁰ vertices; a larger `N` is
/// rejected as [`DimacsError::Malformed`] before anything is allocated.
///
/// # Errors
///
/// [`DimacsError`] on malformed input.
pub fn parse_dimacs_max_flow(text: &str) -> Result<MaxFlowInstance, DimacsError> {
    let mut graph: Option<DiGraph> = None;
    let mut source = None;
    let mut sink = None;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let fields = parse_fields(line);
        match fields[0] {
            "p" => {
                if fields.len() != 4 || fields[1] != "max" {
                    return Err(DimacsError::Malformed {
                        line: lineno,
                        reason: "expected `p max N M`".into(),
                    });
                }
                let n: usize = fields[2].parse().map_err(|_| DimacsError::Malformed {
                    line: lineno,
                    reason: "bad vertex count".into(),
                })?;
                if n > MAX_DIMACS_VERTICES {
                    return Err(DimacsError::Malformed {
                        line: lineno,
                        reason: format!("vertex count above {MAX_DIMACS_VERTICES}"),
                    });
                }
                graph = Some(DiGraph::new(n));
            }
            "n" => {
                if fields.len() != 3 {
                    return Err(DimacsError::Malformed {
                        line: lineno,
                        reason: "expected `n <id> s|t`".into(),
                    });
                }
                let id: usize = fields[1].parse().map_err(|_| DimacsError::Malformed {
                    line: lineno,
                    reason: "bad vertex id".into(),
                })?;
                // Ids are 1-based; the range check against N waits for
                // the end, since `n` lines may precede the `p` line.
                let Some(vertex) = id.checked_sub(1) else {
                    return Err(DimacsError::Malformed {
                        line: lineno,
                        reason: "vertex id out of range".into(),
                    });
                };
                match fields[2] {
                    "s" => source = Some((vertex, lineno)),
                    "t" => sink = Some((vertex, lineno)),
                    other => {
                        return Err(DimacsError::Malformed {
                            line: lineno,
                            reason: format!("unknown terminal kind {other}"),
                        })
                    }
                }
            }
            "a" => {
                let g = graph.as_mut().ok_or(DimacsError::MissingProblemLine)?;
                if fields.len() != 4 {
                    return Err(DimacsError::Malformed {
                        line: lineno,
                        reason: "expected `a <from> <to> <cap>`".into(),
                    });
                }
                let parse = |s: &str| -> Result<i64, DimacsError> {
                    s.parse().map_err(|_| DimacsError::Malformed {
                        line: lineno,
                        reason: "bad number".into(),
                    })
                };
                let (u, v, cap) = (parse(fields[1])?, parse(fields[2])?, parse(fields[3])?);
                if u < 1 || v < 1 || u as usize > g.n() || v as usize > g.n() {
                    return Err(DimacsError::Malformed {
                        line: lineno,
                        reason: "vertex id out of range".into(),
                    });
                }
                check_arc(lineno, u, v, cap)?;
                g.add_edge(u as usize - 1, v as usize - 1, cap, 0);
            }
            other => {
                return Err(DimacsError::Malformed {
                    line: lineno,
                    reason: format!("unknown line kind {other}"),
                })
            }
        }
    }
    let graph = graph.ok_or(DimacsError::MissingProblemLine)?;
    let ((s, s_line), (t, t_line)) = source.zip(sink).ok_or(DimacsError::MissingTerminals)?;
    for (v, line) in [(s, s_line), (t, t_line)] {
        if v >= graph.n() {
            return Err(DimacsError::Malformed {
                line,
                reason: "vertex id out of range".into(),
            });
        }
    }
    if s == t {
        return Err(DimacsError::Malformed {
            line: s_line.max(t_line),
            reason: "source and sink are the same vertex".into(),
        });
    }
    Ok(MaxFlowInstance {
        graph,
        source: s,
        sink: t,
    })
}

/// Rejects the arcs [`DiGraph::add_edge`] would panic on: self-loops and
/// negative capacities (endpoints are range-checked by the caller).
fn check_arc(line: usize, u: i64, v: i64, cap: i64) -> Result<(), DimacsError> {
    let reason = if u == v {
        "self-loop arc"
    } else if cap < 0 {
        "negative capacity"
    } else {
        return Ok(());
    };
    Err(DimacsError::Malformed {
        line,
        reason: reason.into(),
    })
}

/// Renders a max-flow instance in DIMACS format.
pub fn write_dimacs_max_flow(instance: &MaxFlowInstance) -> String {
    let g = &instance.graph;
    let mut out = String::new();
    out.push_str(&format!("p max {} {}\n", g.n(), g.m()));
    out.push_str(&format!("n {} s\n", instance.source + 1));
    out.push_str(&format!("n {} t\n", instance.sink + 1));
    for e in g.edges() {
        out.push_str(&format!("a {} {} {}\n", e.from + 1, e.to + 1, e.capacity));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn max_flow_roundtrip() {
        let g = generators::random_flow_network(8, 12, 5, 3);
        let instance = MaxFlowInstance {
            graph: g,
            source: 0,
            sink: 7,
        };
        let text = write_dimacs_max_flow(&instance);
        let parsed = parse_dimacs_max_flow(&text).unwrap();
        assert_eq!(parsed.source, 0);
        assert_eq!(parsed.sink, 7);
        assert_eq!(parsed.graph.n(), instance.graph.n());
        assert_eq!(parsed.graph.edges(), instance.graph.edges());
    }

    #[test]
    fn parses_classic_example_with_comments() {
        let text = "c a tiny instance\np max 4 3\nn 1 s\nn 4 t\n\na 1 2 5\na 2 3 3\na 3 4 5\n";
        let inst = parse_dimacs_max_flow(text).unwrap();
        assert_eq!(inst.graph.n(), 4);
        assert_eq!(inst.graph.m(), 3);
        assert_eq!(inst.graph.edge(1).capacity, 3);
    }

    #[test]
    fn rejects_malformed_input() {
        assert_eq!(
            parse_dimacs_max_flow("a 1 2 3\n").unwrap_err(),
            DimacsError::MissingProblemLine
        );
        assert!(matches!(
            parse_dimacs_max_flow("p max 2 1\na 1 2\n").unwrap_err(),
            DimacsError::Malformed { line: 2, .. }
        ));
        assert_eq!(
            parse_dimacs_max_flow("p max 2 1\na 1 2 4\n").unwrap_err(),
            DimacsError::MissingTerminals
        );
    }

    fn malformed_line(text: &str) -> usize {
        match parse_dimacs_max_flow(text) {
            Err(DimacsError::Malformed { line, .. }) => line,
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn rejects_terminal_id_zero() {
        // Ids are 1-based: 0 names no vertex.
        assert_eq!(malformed_line("p max 2 1\nn 0 s\nn 2 t\na 1 2 4\n"), 2);
        assert_eq!(malformed_line("p max 2 1\nn 1 s\nn 0 t\na 1 2 4\n"), 3);
    }

    #[test]
    fn rejects_terminal_id_above_vertex_count() {
        assert_eq!(malformed_line("p max 2 1\nn 1 s\nn 3 t\na 1 2 4\n"), 3);
        // Terminal lines may precede the problem line.
        assert_eq!(malformed_line("n 9 s\np max 2 1\nn 2 t\na 1 2 4\n"), 1);
    }

    #[test]
    fn rejects_negative_capacity() {
        assert_eq!(malformed_line("p max 2 1\nn 1 s\nn 2 t\na 1 2 -4\n"), 4);
    }

    #[test]
    fn rejects_source_equal_to_sink() {
        assert_eq!(malformed_line("p max 2 1\nn 1 s\nn 1 t\na 1 2 4\n"), 3);
    }

    #[test]
    fn rejects_self_loops_and_negative_vertex_counts() {
        assert_eq!(malformed_line("p max 2 1\nn 1 s\nn 2 t\na 2 2 4\n"), 4);
        assert_eq!(malformed_line("p max -1 0\n"), 1);
    }

    #[test]
    fn rejects_absurd_vertex_count() {
        // Refused before `DiGraph::new` would try to allocate it.
        let text = format!("p max {} 0\n", MAX_DIMACS_VERTICES + 1);
        assert_eq!(malformed_line(&text), 1);
        assert_eq!(malformed_line("p max 99999999999 0\n"), 1);
    }

    #[test]
    fn rejects_out_of_range_vertices() {
        assert!(matches!(
            parse_dimacs_max_flow("p max 2 1\nn 1 s\nn 2 t\na 1 9 4\n").unwrap_err(),
            DimacsError::Malformed { line: 4, .. }
        ));
    }
}
