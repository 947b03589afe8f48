//! The figure registry: one table mapping subcommand names to the figure
//! entry points in [`crate::figures`].
//!
//! The `swarm` binary dispatches subcommands through [`find`]/[`REGISTRY`],
//! so adding a figure means adding one module and one table row.

use crate::figures;

/// One registered figure/table command.
pub struct FigureSpec {
    /// Subcommand name (`swarm <name> ...`).
    pub name: &'static str,
    /// Alternative names accepted by [`find`]: the underscored spellings
    /// (`ablation_lb`, `bench_snapshot`) that older command lines use.
    pub aliases: &'static [&'static str],
    /// One-line description shown by `swarm list`.
    pub about: &'static str,
    /// The entry point; receives the arguments after the subcommand name
    /// and returns the process exit code (see [`crate::exit_code`]).
    pub run: fn(&[String]) -> i32,
}

/// Every figure/table command, in the order `swarm list` prints them.
pub const REGISTRY: &[FigureSpec] = &[
    FigureSpec {
        name: "fig2",
        aliases: &[],
        about: "motivation: des speedups and cycle breakdown under all four schedulers",
        run: figures::fig2::run,
    },
    FigureSpec {
        name: "fig3",
        aliases: &[],
        about: "architecture-independent classification of committed memory accesses",
        run: figures::fig3::run,
    },
    FigureSpec {
        name: "fig4",
        aliases: &[],
        about: "speedup of Random/Stealing/Hints from 1 to N cores, per application",
        run: figures::fig4::run,
    },
    FigureSpec {
        name: "fig5",
        aliases: &[],
        about: "core-cycle and NoC-traffic breakdowns at the largest core count",
        run: figures::fig5::run,
    },
    FigureSpec {
        name: "fig6",
        aliases: &[],
        about: "access classification of coarse- vs fine-grain task versions",
        run: figures::fig6::run,
    },
    FigureSpec {
        name: "fig7",
        aliases: &[],
        about: "speedup of fine- vs coarse-grain versions under each scheduler",
        run: figures::fig7::run,
    },
    FigureSpec {
        name: "fig8",
        aliases: &[],
        about: "fine-grain cycle and traffic breakdowns, normalized to CG-Random",
        run: figures::fig8::run,
    },
    FigureSpec {
        name: "fig10",
        aliases: &[],
        about: "speedup of all four schedulers with best task granularity per scheme",
        run: figures::fig10::run,
    },
    FigureSpec {
        name: "fig11",
        aliases: &[],
        about: "cycle breakdown where the load balancer matters (des/nocsim/silo/kmeans)",
        run: figures::fig11::run,
    },
    FigureSpec {
        name: "table1",
        aliases: &[],
        about: "Table I: benchmark characteristics and 1-core run times",
        run: figures::table1::run,
    },
    FigureSpec {
        name: "table2",
        aliases: &[],
        about: "beyond-Table-I workloads (maxflow/triangle/kvstore) characterised and swept",
        run: figures::table2::run,
    },
    FigureSpec {
        name: "sysconfig",
        aliases: &[],
        about: "Table II: configuration of the simulated 256-core system",
        run: figures::sysconfig::run,
    },
    FigureSpec {
        name: "summary",
        aliases: &[],
        about: "Section VI-B gmean speedups and efficiency metrics (supports --json)",
        run: figures::summary::run,
    },
    FigureSpec {
        name: "ablation-lb",
        aliases: &["ablation_lb"],
        about: "Section VI-A ablation: committed-cycles vs idle-count load-balance signal",
        run: figures::ablation_lb::run,
    },
    FigureSpec {
        name: "bench",
        aliases: &["bench_snapshot"],
        about: "microbenchmark snapshot of the memory-system hot path (writes JSON)",
        run: figures::bench_snapshot::run,
    },
    FigureSpec {
        name: "chaos",
        aliases: &[],
        about: "fault-injection battery: every fault must fail typed or complete clean",
        run: figures::chaos::run,
    },
    FigureSpec {
        name: "noc-profile",
        aliases: &["noc_profile"],
        about: "per-link queueing heat tables under the contention NoC model",
        run: figures::noc_profile::run,
    },
    FigureSpec {
        name: "serve",
        aliases: &[],
        about: "long-lived simulation service with a content-addressed result cache",
        run: figures::serve::run,
    },
    FigureSpec {
        name: "bench-serve",
        aliases: &["bench_serve"],
        about: "load-generate against an in-process serve stack; commits req/s and hit-rate series",
        run: figures::bench_serve::run,
    },
];

/// Look a command up by name or alias.
pub fn find(name: &str) -> Option<&'static FigureSpec> {
    REGISTRY.iter().find(|spec| spec.name == name || spec.aliases.contains(&name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_and_alias_is_reachable() {
        // Every alias must resolve to the spec that declares it.
        for spec in REGISTRY {
            assert!(find(spec.name).is_some(), "{} not found", spec.name);
            for alias in spec.aliases {
                assert_eq!(find(alias).unwrap().name, spec.name);
            }
        }
        assert!(find("fig9").is_none(), "the paper has no reproducible fig9");
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = REGISTRY
            .iter()
            .flat_map(|s| std::iter::once(s.name).chain(s.aliases.iter().copied()))
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate command names in the registry");
    }

    #[test]
    fn registry_lists_every_command_and_alias() {
        // Pins the command surface: every name and alias below must
        // resolve to its canonical command, and nothing else is registered.
        let expected: [(&str, &[&str]); 19] = [
            ("fig2", &[]),
            ("fig3", &[]),
            ("fig4", &[]),
            ("fig5", &[]),
            ("fig6", &[]),
            ("fig7", &[]),
            ("fig8", &[]),
            ("fig10", &[]),
            ("fig11", &[]),
            ("table1", &[]),
            ("table2", &[]),
            ("sysconfig", &[]),
            ("summary", &[]),
            ("ablation-lb", &["ablation_lb"]),
            ("bench", &["bench_snapshot"]),
            ("chaos", &[]),
            ("noc-profile", &["noc_profile"]),
            ("serve", &[]),
            ("bench-serve", &["bench_serve"]),
        ];
        assert_eq!(REGISTRY.len(), expected.len());
        for (name, aliases) in expected {
            let spec = find(name).unwrap_or_else(|| panic!("{name} missing from the registry"));
            assert_eq!(spec.name, name);
            assert_eq!(spec.aliases, aliases, "aliases of {name}");
            for alias in aliases {
                assert_eq!(find(alias).unwrap().name, name);
            }
        }
    }
}
