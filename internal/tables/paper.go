package tables

// The published numbers of Venugopal & Naik (SC'91), transcribed from the
// ICASE Report 91-80 text. They are kept alongside the measured values so
// every regenerated table can print paper-vs-measured in one place
// (EXPERIMENTS.md is generated from these).

// PaperTable1 rows: matrix name -> {equations, nonzeros, factor nonzeros}.
var PaperTable1 = map[string][3]int{
	"BUS1138":  {1138, 2596, 3304},
	"CANN1072": {1072, 6758, 20512},
	"DWT512":   {512, 2007, 3786},
	"LAP30":    {900, 4322, 16697},
	"LSHP1009": {1009, 3937, 18268},
}

// paperComm is one paper entry of Table 2: total and mean data traffic for
// grain sizes 4 and 25.
type paperComm struct {
	TotalG4, TotalG25 int64
	MeanG4, MeanG25   int64
}

// PaperTable2 rows: matrix name -> processor count -> communication.
var PaperTable2 = map[string]map[int]paperComm{
	"BUS1138": {
		4:  {1335, 1194, 334, 298},
		16: {1818, 1567, 114, 98},
		32: {1910, 1649, 60, 103},
	},
	"CANN1072": {
		4:  {47545, 40716, 11886, 10179},
		16: {138453, 80334, 8653, 5021},
		32: {171965, 89042, 5374, 2783},
	},
	"DWT512": {
		4:  {5336, 3768, 1334, 942},
		16: {10328, 5482, 645, 342},
		32: {11305, 5950, 353, 185},
	},
	"LAP30": {
		4:  {38424, 29382, 9606, 7346},
		16: {100012, 44738, 6251, 2796},
		32: {113717, 48863, 3554, 1527},
	},
	"LSHP1009": {
		4:  {42044, 29899, 10511, 7475},
		16: {106973, 57773, 6686, 3611},
		32: {127612, 60243, 3988, 1883},
	},
}

// paperWork is one paper entry of Table 3: mean work and the load imbalance
// factor A at grain sizes 4 and 25.
type paperWork struct {
	Mean     int64
	AG4, AG5 float64 // AG5 is the g=25 column
}

// PaperTable3 rows: matrix name -> processor count -> work distribution.
var PaperTable3 = map[string]map[int]paperWork{
	"BUS1138": {
		4:  {2791, 0.77, 0.8},
		16: {698, 3.59, 3.59},
		32: {349, 6.3, 6.3},
	},
	"CANN1072": {
		4:  {151460, 0.07, 0.122},
		16: {37865, 0.13, 0.62},
		32: {18932, 0.38, 1.26},
	},
	"DWT512": {
		4:  {11701, 0.17, 0.18},
		16: {2925, 1.14, 1.37},
		32: {1462, 1.48, 3.67},
	},
	"LAP30": {
		4:  {108644, 0.12, 0.16},
		16: {27161, 0.13, 1.13},
		32: {13581, 0.48, 2.9},
	},
	"LSHP1009": {
		4:  {125392, 0.06, 0.24},
		16: {31348, 0.25, 0.74},
		32: {15674, 0.24, 2.04},
	},
}

// paperMapping is one paper entry of Table 4 (LAP30, g=4) or Table 5
// (wrap): total and mean traffic, mean work and the imbalance factor A.
type paperMapping struct {
	Total, Mean, MeanWork int64
	A                     float64
}

// PaperTable4 rows: minimum cluster width -> processor count -> entry.
var PaperTable4 = map[int]map[int]paperMapping{
	2: {
		4:  {38936, 9734, 108644, 0.03},
		16: {96235, 6015, 27161, 0.167},
		32: {111519, 3485, 13580, 0.54},
	},
	4: {
		4:  {38424, 9606, 108644, 0.12},
		16: {100012, 6251, 27161, 0.13},
		32: {113717, 3554, 13580, 0.48},
	},
	8: {
		4:  {32569, 8142, 108644, 0.62},
		16: {88408, 5526, 27161, 1.35},
		32: {101725, 3179, 13580, 2.3},
	},
}

// PaperTable5 rows: matrix name -> processor count -> wrap-mapping entry.
var PaperTable5 = map[string]map[int]paperMapping{
	"BUS1138": {
		1:  {0, 0, 11164, 0},
		4:  {2485, 621, 2791, 0.02},
		16: {3705, 231, 698, 0.12},
		32: {3832, 120, 349, 0.35},
	},
	"CANN1072": {
		1:  {0, 0, 605840, 0},
		4:  {52363, 13090, 151460, 0.01},
		16: {171764, 10735, 37865, 0.05},
		32: {239646, 7489, 18932, 0.14},
	},
	"DWT512": {
		1:  {0, 0, 46804, 0},
		4:  {7599, 1900, 11701, 0.02},
		16: {17867, 1117, 2925, 0.26},
		32: {20990, 656, 1462, 0.32},
	},
	"LAP30": {
		1:  {0, 0, 434577, 0},
		4:  {42663, 10665, 108644, 0.01},
		16: {133720, 8357, 27161, 0.06},
		32: {177625, 5551, 13580, 0.11},
	},
	"LSHP1009": {
		1:  {0, 0, 501570, 0},
		4:  {46347, 11586, 125392, 0.01},
		16: {146322, 9145, 31348, 0.09},
		32: {192977, 6031, 15674, 0.24},
	},
}
