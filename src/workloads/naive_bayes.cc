#include "workloads/naive_bayes.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "runtime/plan.h"
#include "workloads/int64_sum.h"
#include "workloads/text_utils.h"

namespace dmb::workloads {

namespace {

using datampi::KVPair;

// Count keys on the wire:
//   "t<label>\x01<term>" -> term count within class
//   "d<label>"           -> document count of class
//   "s<label>"           -> per-class term total (summary stage)
std::string TermKey(int label, std::string_view term) {
  std::string key;
  key.push_back('t');
  key.append(std::to_string(label));
  key.push_back('\x01');
  key.append(term);
  return key;
}

std::string DocKey(int label) {
  std::string key;
  key.push_back('d');
  key.append(std::to_string(label));
  return key;
}

std::string TotalKey(std::string_view label) {
  std::string key;
  key.reserve(label.size() + 1);
  key.push_back('s');
  key.append(label);
  return key;
}

Status ApplyCountToModel(NaiveBayesModel* model, std::string_view key,
                         int64_t count) {
  if (key.size() < 2) return Status::Corruption("short NB count key");
  if (key[0] == 'd') {
    model->AddDocCount(std::stoi(std::string(key.substr(1))), count);
    return Status::OK();
  }
  if (key[0] == 't') {
    const size_t sep = key.find('\x01');
    if (sep == std::string_view::npos) {
      return Status::Corruption("bad NB term key");
    }
    const int label = std::stoi(std::string(key.substr(1, sep - 1)));
    model->AddTermCount(label, std::string(key.substr(sep + 1)), count);
    return Status::OK();
  }
  return Status::Corruption("unknown NB key type");
}

Result<NaiveBayesModel> ModelFromCounts(const std::vector<KVPair>& counts,
                                        int num_classes) {
  NaiveBayesModel model(num_classes);
  std::vector<int64_t> totals;  // per-class term totals from "s" records
  for (const auto& kv : counts) {
    if (!kv.key.empty() && kv.key[0] == 's') {
      const int label = std::stoi(kv.key.substr(1));
      if (label < 0 || label >= num_classes) {
        return Status::Corruption("bad NB summary label");
      }
      if (totals.empty()) totals.assign(static_cast<size_t>(num_classes), 0);
      totals[static_cast<size_t>(label)] += std::stoll(kv.value);
      continue;
    }
    DMB_RETURN_NOT_OK(ApplyCountToModel(&model, kv.key, std::stoll(kv.value)));
  }
  // The summary stage's per-class totals must agree with the detailed
  // term counts they were derived from — an end-to-end integrity check
  // on the plan's narrow handoff.
  if (!totals.empty() && totals != model.term_totals()) {
    return Status::Corruption("NB summary totals disagree with term counts");
  }
  return model;
}

}  // namespace

NaiveBayesModel::NaiveBayesModel(int num_classes)
    : num_classes_(num_classes),
      doc_counts_(static_cast<size_t>(num_classes), 0),
      term_totals_(static_cast<size_t>(num_classes), 0),
      term_counts_(static_cast<size_t>(num_classes)) {
  DMB_CHECK(num_classes >= 1);
}

void NaiveBayesModel::AddTermCount(int label, const std::string& term,
                                   int64_t count) {
  DMB_CHECK(label >= 0 && label < num_classes_);
  term_counts_[static_cast<size_t>(label)][term] += count;
  term_totals_[static_cast<size_t>(label)] += count;
  vocabulary_[term] = true;
}

void NaiveBayesModel::AddDocCount(int label, int64_t count) {
  DMB_CHECK(label >= 0 && label < num_classes_);
  doc_counts_[static_cast<size_t>(label)] += count;
  total_docs_ += count;
}

int64_t NaiveBayesModel::TermCount(int label, const std::string& term) const {
  const auto& counts = term_counts_[static_cast<size_t>(label)];
  auto it = counts.find(term);
  return it == counts.end() ? 0 : it->second;
}

double NaiveBayesModel::LogPosterior(int label,
                                     const std::string& text) const {
  DMB_CHECK(label >= 0 && label < num_classes_);
  DMB_CHECK(total_docs_ > 0) << "model is empty";
  const double vocab = static_cast<double>(
      std::max<int64_t>(1, vocabulary_size()));
  double log_p = std::log(
      (static_cast<double>(doc_counts_[static_cast<size_t>(label)]) + 1.0) /
      (static_cast<double>(total_docs_) + num_classes_));
  const double denom =
      static_cast<double>(term_totals_[static_cast<size_t>(label)]) + vocab;
  ForEachToken(text, [&](std::string_view tok) {
    const int64_t c = TermCount(label, std::string(tok));
    log_p += std::log((static_cast<double>(c) + 1.0) / denom);
  });
  return log_p;
}

int NaiveBayesModel::Classify(const std::string& text) const {
  int best = 0;
  double best_lp = LogPosterior(0, text);
  for (int c = 1; c < num_classes_; ++c) {
    const double lp = LogPosterior(c, text);
    if (lp > best_lp) {
      best_lp = lp;
      best = c;
    }
  }
  return best;
}

bool NaiveBayesModel::operator==(const NaiveBayesModel& other) const {
  return num_classes_ == other.num_classes_ &&
         total_docs_ == other.total_docs_ &&
         doc_counts_ == other.doc_counts_ &&
         term_totals_ == other.term_totals_ &&
         term_counts_ == other.term_counts_;
}

NaiveBayesModel TrainNaiveBayesReference(const std::vector<LabeledDoc>& docs,
                                         int num_classes) {
  NaiveBayesModel model(num_classes);
  for (const auto& doc : docs) {
    model.AddDocCount(doc.label, 1);
    ForEachToken(doc.text, [&](std::string_view tok) {
      model.AddTermCount(doc.label, std::string(tok), 1);
    });
  }
  return model;
}

Result<NaiveBayesModel> TrainNaiveBayes(engine::Engine& eng,
                                        const std::vector<LabeledDoc>& docs,
                                        int num_classes,
                                        const EngineConfig& config) {
  // Mahout-style two-job pipeline as one plan: a counting stage builds
  // the per-class term/document counts, then a summary stage — fed over
  // a narrow edge, so each count partition stays pinned to its task —
  // passes the counts through and folds per-class term totals on top.
  runtime::Plan plan;

  runtime::StageSpec count;
  count.name = "nb-count";
  count.job = BaseSpec(config);
  count.job.input = engine::IndexInput(docs.size());
  UseInt64Sum(&count.job);
  count.job.map_fn = [&docs](std::string_view, std::string_view value,
                             engine::MapContext* ctx) -> Status {
    const auto& doc = docs[std::stoull(std::string(value))];
    DMB_RETURN_NOT_OK(ctx->Emit(DocKey(doc.label), "1"));
    Status st;
    ForEachToken(doc.text, [&](std::string_view tok) {
      if (st.ok()) st = ctx->Emit(TermKey(doc.label, tok), "1");
    });
    return st;
  };
  const int count_id = plan.AddStage(std::move(count));

  runtime::StageSpec summary;
  summary.name = "nb-totals";
  summary.job = BaseSpec(config);
  summary.job.map_fn = [](std::string_view key, std::string_view value,
                          engine::MapContext* ctx) -> Status {
    DMB_RETURN_NOT_OK(ctx->Emit(key, value));
    if (!key.empty() && key[0] == 't') {
      const size_t sep = key.find('\x01');
      if (sep == std::string_view::npos) {
        return Status::Corruption("bad NB term key");
      }
      return ctx->Emit(TotalKey(key.substr(1, sep - 1)), value);
    }
    return Status::OK();
  };
  // Count keys are unique after the counting stage, so only the summary
  // keys actually fold; everything else passes through unchanged.
  summary.job.combiner = [](std::string_view key,
                            const std::vector<std::string>& values) {
    if (!key.empty() && key[0] == 's') return Int64SumCombiner(key, values);
    return values.front();
  };
  summary.job.reduce_fn = [](std::string_view key,
                             const std::vector<std::string>& values,
                             engine::ReduceEmitter* out) -> Status {
    if (!key.empty() && key[0] == 's') {
      return Int64SumReduce(key, values, out);
    }
    for (const auto& v : values) out->Emit(key, v);
    return Status::OK();
  };
  plan.AddStage(std::move(summary),
                {{count_id, runtime::EdgeKind::kNarrow}});

  DMB_ASSIGN_OR_RETURN(runtime::PlanOutput out, eng.RunPlan(plan));
  return ModelFromCounts(out.Merged(), num_classes);
}

double EvaluateAccuracy(const NaiveBayesModel& model,
                        const std::vector<LabeledDoc>& docs) {
  if (docs.empty()) return 0.0;
  int64_t correct = 0;
  for (const auto& doc : docs) {
    if (model.Classify(doc.text) == doc.label) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(docs.size());
}

}  // namespace dmb::workloads
