package stats

// SeasonTables exposes the SeasonCos memo bound to the external tests.
const SeasonTables = seasonTables

// SeasonMemoStats reports the SeasonCos memo's counters.
var SeasonMemoStats = seasonMemo.Stats
