package sim

// StreamNames is the module-wide registry of named RNG streams and
// stream families (a family is a fmt.Sprintf format deriving one
// stream per instance, e.g. "vm%d"). Substream derivation hashes the
// name into the seed (see RNG.Stream), so two sites deriving the same
// name from the same seed draw identical bit sequences — silent
// correlation. The taichilint streamdraw rule enforces that every
// derived name appears here and every entry is actually derived, so
// this list is the single place to scan when adding a stream and
// picking a name that collides with nothing.
var StreamNames = []string{
	// Cluster control plane and request lifecycle.
	"cluster",
	"cluster.admit",
	"cluster.requeue",
	"cluster.retry",
	"cluster.shed",
	"mon%d",
	"vm%d",
	"vm%d.retry%d",
	"vmdel%d",
	// Core scheduling and recovery.
	"core.overload",
	"core.recovery",
	// Cluster placement and live migration.
	"cluster.vmload%d",
	"migrate.pick",
	"place.arrive",
	"place.choose",
	// Fault injection.
	"faults.coord",
	"faults.cp",
	"faults.exit",
	"faults.ipi",
	"faults.lock",
	"faults.offline",
	"faults.probe",
	"faults.spurious",
	// Workload generators.
	"bg.net%d",
	"bg.stor%d",
	"crr",
	"fio",
	"mysql",
	"nginx",
	"ping",
	"rr",
	"stream",
	// Experiment harnesses (figures and tables).
	"chaos.cp%d",
	"chaosrec.cp%d",
	"cp%d",
	"cpchurn",
	"eco%d",
	"exp.mon%d",
	"fig14.phase",
	"fig15.phase",
	"fig16.phase",
	"fig3.core%d",
	"fig5.synth",
	"rescue.phase",
	"synth%d",
	// Command-line tools and examples.
	"dyndp.job%d",
	"job%d",
	"probe",
	"qs.job%d",
	"sim.cp",
	"sim.mon%d",
	"task%d",
}
