#include "model/paper_zoo.h"

#include "data/latent.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace tps {

namespace {

ModelSpec M(std::string name, TaskDomain domain, std::string family,
            double scale, double capability,
            std::vector<std::string> pretrain_tags,
            std::vector<std::string> finetune_tags, double ft_strength,
            int num_source_labels, std::string description) {
  ModelSpec spec;
  spec.name = std::move(name);
  spec.domain = domain;
  spec.family = std::move(family);
  spec.scale_millions = scale;
  spec.capability = capability;
  spec.pretrain_tags = std::move(pretrain_tags);
  spec.finetune_tags = std::move(finetune_tags);
  spec.finetune_strength = ft_strength;
  spec.num_source_labels = num_source_labels;
  spec.description = std::move(description);
  return spec;
}

// Pre-training corpora shared across lineages.
const std::vector<std::string> kBertCorpus = {"english", "books",
                                              "wikipedia"};
const std::vector<std::string> kRobertaCorpus = {"english", "web", "news"};
const std::vector<std::string> kMultilingualCorpus = {"multilingual",
                                                      "wikipedia"};
const std::vector<std::string> kArabicCorpus = {"arabic", "web"};

// Fine-tune tag sets mirror the corresponding dataset specs in
// src/data/registry.cc so lineage -> dataset transfer signal lines up.
const std::vector<std::string> kQqpTags = {"english", "paraphrase",
                                           "questions", "web"};
const std::vector<std::string> kColaTags = {"english", "grammar",
                                            "acceptability"};
const std::vector<std::string> kQnliTags = {"english", "qa", "nli",
                                            "wikipedia"};
const std::vector<std::string> kMnliTags = {"english", "nli", "crowdsourced",
                                            "multi-genre"};
const std::vector<std::string> kSst2Tags = {"english", "sentiment", "movies"};

const std::vector<std::string> kImagenet1k = {"natural-images", "objects"};
const std::vector<std::string> kImagenet21k = {"natural-images", "objects",
                                               "encyclopedic"};

}  // namespace

std::vector<ModelSpec> NlpPaperZooSpecs() {
  const TaskDomain d = TaskDomain::kNLP;
  std::vector<ModelSpec> specs;
  specs.reserve(40);

  // --- The bert_ft_qqp lineage (paper cluster C1). ---
  for (const char* name :
       {"Jeevesh8/bert_ft_qqp-68", "Jeevesh8/bert_ft_qqp-9",
        "Jeevesh8/bert_ft_qqp-40", "connectivity/bert_ft_qqp-1",
        "connectivity/bert_ft_qqp-7"}) {
    specs.push_back(M(name, d, "bert", 110, 0.62, kBertCorpus, kQqpTags, 0.5,
                      2, "BERT-base fine-tuned on the QQP paraphrase task."));
  }
  // --- Random-init QQP lineage: same task, much weaker backbone (C7). ---
  for (const char* name :
       {"Jeevesh8/init_bert_ft_qqp-33", "Jeevesh8/init_bert_ft_qqp-24",
        "connectivity/bert_ft_qqp-17", "connectivity/bert_ft_qqp-96"}) {
    specs.push_back(M(name, d, "bert", 110, 0.42, kBertCorpus, kQqpTags, 0.5,
                      2,
                      "BERT architecture trained on QQP from a weak "
                      "initialization; markedly lower quality."));
  }
  // --- CoLA lineage. ---
  specs.push_back(M("Jeevesh8/512seq_len_6ep_bert_ft_cola-91", d, "bert", 110,
                    0.60, kBertCorpus, kColaTags, 0.5, 2,
                    "BERT-base fine-tuned on CoLA (512 sequence length)."));
  specs.push_back(M("Jeevesh8/bert_ft_cola-88", d, "bert", 110, 0.60,
                    kBertCorpus, kColaTags, 0.5, 2,
                    "BERT-base fine-tuned on CoLA."));
  specs.push_back(M("Jeevesh8/6ep_bert_ft_cola-47", d, "bert", 110, 0.58,
                    kBertCorpus, kColaTags, 0.5, 2,
                    "BERT-base fine-tuned on CoLA for six epochs."));
  // --- MNLI lineage (C3): the strong models for NLI-flavoured targets. ---
  specs.push_back(M("ishan/bert-base-uncased-mnli", d, "bert", 110, 0.64,
                    kBertCorpus, kMnliTags, 0.5, 3,
                    "BERT-base fine-tuned on MNLI."));
  specs.push_back(M("Jeevesh8/feather_berts_46", d, "bert", 110, 0.63,
                    kBertCorpus, kMnliTags, 0.5, 3,
                    "Feather BERT #46: BERT-base fine-tuned on MNLI."));
  // --- QNLI fine-tunes. ---
  specs.push_back(M("anirudh21/bert-base-uncased-finetuned-qnli", d, "bert",
                    110, 0.61, kBertCorpus, kQnliTags, 0.5, 2,
                    "BERT-base fine-tuned on QNLI."));
  specs.push_back(M("Alireza1044/albert-base-v2-qnli", d, "albert", 12, 0.66,
                    kBertCorpus, kQnliTags, 0.5, 2,
                    "ALBERT-base-v2 fine-tuned on QNLI."));
  // --- Base pre-trained checkpoints (no fine-tune). ---
  specs.push_back(M("bert-base-uncased", d, "bert", 110, 0.62, kBertCorpus,
                    {}, 0.0, 16, "The original BERT-base checkpoint."));
  specs.push_back(M("roberta-base", d, "roberta", 125, 0.68, kRobertaCorpus,
                    {}, 0.0, 16, "The original RoBERTa-base checkpoint."));
  specs.push_back(M("albert-base-v2", d, "albert", 12, 0.66, kBertCorpus, {},
                    0.0, 16, "The original ALBERT-base-v2 checkpoint."));
  specs.push_back(M("distilbert-base-uncased", d, "distilbert", 66, 0.56,
                    kBertCorpus, {}, 0.0, 16,
                    "Distilled BERT-base checkpoint."));
  // --- GLUE one-offs. ---
  specs.push_back(M("gchhablani/bert-base-cased-finetuned-rte", d, "bert",
                    110, 0.60, kBertCorpus, {"english", "nli", "news"}, 0.5,
                    2, "BERT-base fine-tuned on RTE."));
  specs.push_back(M("gchhablani/bert-base-cased-finetuned-wnli", d, "bert",
                    110, 0.57, kBertCorpus,
                    {"english", "nli", "coreference"}, 0.5, 2,
                    "BERT-base fine-tuned on WNLI."));
  specs.push_back(M("aviator-neural/bert-base-uncased-sst2", d, "bert", 110,
                    0.61, kBertCorpus, kSst2Tags, 0.5, 2,
                    "BERT-base fine-tuned on SST-2 sentiment."));
  specs.push_back(M("aychang/bert-base-cased-trec-coarse", d, "bert", 110,
                    0.60, kBertCorpus, {"english", "questions", "topic"},
                    0.5, 6, "BERT-base fine-tuned on TREC coarse classes."));
  specs.push_back(M("XSY/albert-base-v2-imdb-calssification", d, "albert", 12,
                    0.63, kBertCorpus,
                    {"english", "sentiment", "movies", "reviews"}, 0.5, 2,
                    "ALBERT-base-v2 fine-tuned on IMDB sentiment."));
  specs.push_back(M("18811449050/bert_finetuning_test", d, "bert", 110, 0.58,
                    kBertCorpus, kSst2Tags, 0.4, 2,
                    "A BERT fine-tuning smoke-test checkpoint."));
  // --- Twitter / social-media fine-tunes. ---
  specs.push_back(M("DoyyingFace/bert-asian-hate-tweets-asian-unclean-"
                    "freeze-4",
                    d, "bert", 110, 0.58, kBertCorpus,
                    {"english", "twitter", "hate-speech"}, 0.15, 2,
                    "BERT with 4 frozen layers, fine-tuned on hate-speech "
                    "tweets; behaves close to the base model."));
  specs.push_back(M("manueltonneau/bert-twitter-en-is-hired", d, "bert", 110,
                    0.57, kBertCorpus,
                    {"english", "twitter", "social-media"}, 0.5, 2,
                    "BERT fine-tuned on employment-status tweets."));
  // --- Speech / misc English fine-tunes. ---
  specs.push_back(M("Splend1dchan/bert-base-uncased-slue-goldtrascription-"
                    "e3-lr1e-4",
                    d, "bert", 110, 0.55, kBertCorpus,
                    {"english", "speech", "transcripts"}, 0.5, 2,
                    "BERT fine-tuned on SLUE gold transcriptions."));
  specs.push_back(M("bondi/bert-semaphore-prediction-w4", d, "bert", 110,
                    0.50, kBertCorpus, {"english", "web"}, 0.5, 2,
                    "BERT fine-tuned on a niche semaphore-prediction task."));
  specs.push_back(M("dhimskyy/wiki-bert", d, "bert", 110, 0.52, kBertCorpus,
                    {"english", "wikipedia", "topic"}, 0.4, 2,
                    "BERT variant trained on Wikipedia sections."));
  // --- Cross-lingual / out-of-domain models (the Fig. 1 long tail). ---
  specs.push_back(M("aditeyabaral/finetuned-sail2017-xlm-roberta-base", d,
                    "xlm-roberta", 270, 0.55, {"multilingual", "web"},
                    {"sentiment", "social-media", "code-mixed"}, 0.5, 3,
                    "XLM-RoBERTa fine-tuned on SAIL-2017 code-mixed "
                    "sentiment."));
  specs.push_back(M("aliosm/sha3bor-metre-detector-arabertv2-base", d,
                    "arabert", 135, 0.50, kArabicCorpus,
                    {"arabic", "poetry"}, 0.5, 14,
                    "AraBERT fine-tuned to detect Arabic poetry metres."));
  specs.push_back(M("CAMeL-Lab/bert-base-arabic-camelbert-da-sentiment", d,
                    "camelbert", 110, 0.52, kArabicCorpus,
                    {"arabic", "sentiment"}, 0.5, 3,
                    "CAMeLBERT dialectal-Arabic sentiment model."));
  specs.push_back(M("CAMeL-Lab/bert-base-arabic-camelbert-mix-did-nadi", d,
                    "camelbert", 110, 0.50, kArabicCorpus,
                    {"arabic", "dialect"}, 0.5, 21,
                    "CAMeLBERT dialect-identification model (NADI)."));
  specs.push_back(M("classla/bcms-bertic-parlasent-bcs-ter", d, "bertic", 110,
                    0.50, {"balkan", "web"},
                    {"balkan", "sentiment", "parliament"}, 0.5, 3,
                    "BERTić fine-tuned on parliamentary sentiment (BCS)."));
  specs.push_back(M("emrecan/bert-base-multilingual-cased-snli_tr", d,
                    "mbert", 180, 0.55, kMultilingualCorpus,
                    {"turkish", "nli"}, 0.5, 3,
                    "Multilingual BERT fine-tuned on Turkish SNLI."));
  specs.push_back(M("jb2k/bert-base-multilingual-cased-language-detection",
                    d, "mbert", 180, 0.52, kMultilingualCorpus,
                    {"multilingual", "language-id"}, 0.5, 45,
                    "Multilingual BERT language detector."));
  specs.push_back(M("socialmediaie/TRAC2020_IBEN_B_bert-base-multilingual-"
                    "uncased",
                    d, "mbert", 180, 0.50, kMultilingualCorpus,
                    {"bengali", "social-media", "aggression"}, 0.5, 3,
                    "Multilingual BERT fine-tuned on TRAC-2020 aggression "
                    "identification (Bengali)."));
  specs.push_back(M("Guscode/DKbert-hatespeech-detection", d, "dkbert", 110,
                    0.50, {"danish", "web"},
                    {"danish", "hate-speech", "social-media"}, 0.5, 2,
                    "Danish BERT hate-speech detector."));
  return specs;
}

std::vector<ModelSpec> CvPaperZooSpecs() {
  const TaskDomain d = TaskDomain::kCV;
  std::vector<ModelSpec> specs;
  specs.reserve(30);

  // --- DeiT family (ImageNet-1k). ---
  specs.push_back(M("facebook/deit-base-patch16-224", d, "deit", 86, 0.78,
                    kImagenet1k, {}, 0.0, 64,
                    "DeiT-base distilled on ImageNet-1k."));
  specs.push_back(M("facebook/deit-base-patch16-384", d, "deit", 86, 0.80,
                    kImagenet1k, {}, 0.0, 64,
                    "DeiT-base at 384px resolution."));
  specs.push_back(M("facebook/deit-small-patch16-224", d, "deit", 22, 0.72,
                    kImagenet1k, {}, 0.0, 64, "DeiT-small on ImageNet-1k."));
  // --- DINO self-supervised ViTs. ---
  specs.push_back(M("facebook/dino-vitb16", d, "vit", 86, 0.79, kImagenet21k,
                    {}, 0.0, 64, "DINO self-supervised ViT-base/16."));
  specs.push_back(M("facebook/dino-vitb8", d, "vit", 86, 0.80, kImagenet21k,
                    {}, 0.0, 64, "DINO self-supervised ViT-base/8."));
  specs.push_back(M("facebook/dino-vits16", d, "vit", 22, 0.73, kImagenet1k,
                    {}, 0.0, 64, "DINO self-supervised ViT-small/16."));
  // --- MSN ViTs (ImageNet-1k). ---
  specs.push_back(M("facebook/vit-msn-base", d, "vit", 86, 0.77, kImagenet1k,
                    {}, 0.0, 64, "Masked-siamese-network ViT-base."));
  specs.push_back(M("facebook/vit-msn-small", d, "vit", 22, 0.72,
                    kImagenet1k, {}, 0.0, 64,
                    "Masked-siamese-network ViT-small."));
  // --- Google ViTs (ImageNet-21k pre-training). ---
  specs.push_back(M("google/vit-base-patch16-224", d, "vit", 86, 0.80,
                    kImagenet21k, {}, 0.0, 64,
                    "ViT-base/16 pre-trained on ImageNet-21k, fine-tuned on "
                    "ImageNet-1k."));
  specs.push_back(M("google/vit-base-patch16-384", d, "vit", 86, 0.82,
                    kImagenet21k, {}, 0.0, 64,
                    "ViT-base/16 at 384px resolution."));
  specs.push_back(M("google/vit-base-patch32-224-in21k", d, "vit", 88, 0.74,
                    kImagenet21k, {}, 0.0, 64,
                    "ViT-base/32 pre-trained on ImageNet-21k only."));
  // --- BEiT family (ImageNet-21k pre-training). ---
  specs.push_back(M("microsoft/beit-base-patch16-224", d, "beit", 86, 0.79,
                    kImagenet21k, {}, 0.0, 64, "BEiT-base/16."));
  specs.push_back(M("microsoft/beit-base-patch16-224-pt22k", d, "beit", 86,
                    0.70, kImagenet21k, {}, 0.0, 64,
                    "BEiT-base pre-trained on ImageNet-22k without "
                    "supervised fine-tuning."));
  specs.push_back(M("microsoft/beit-base-patch16-224-pt22k-ft22k", d, "beit",
                    86, 0.78, kImagenet21k, {}, 0.0, 64,
                    "BEiT-base pre-trained and fine-tuned on ImageNet-22k."));
  specs.push_back(M("microsoft/beit-base-patch16-384", d, "beit", 86, 0.81,
                    kImagenet21k, {}, 0.0, 64,
                    "BEiT-base at 384px resolution."));
  specs.push_back(M("microsoft/beit-large-patch16-224-pt22k", d, "beit", 304,
                    0.73, kImagenet21k, {}, 0.0, 64,
                    "BEiT-large pre-trained on ImageNet-22k without "
                    "supervised fine-tuning."));
  // --- BEiT fine-tuned on facial expression recognition (lixiqi). ---
  for (const char* name :
       {"lixiqi/beit-base-patch16-224-pt22k-ft22k-finetuned-FER2013-6e-05",
        "lixiqi/beit-base-patch16-224-pt22k-ft22k-finetuned-FER2013-7e-05",
        "lixiqi/beit-base-patch16-224-pt22k-ft22k-finetuned-FER-5e-05-3"}) {
    specs.push_back(M(name, d, "beit", 86, 0.74, kImagenet21k,
                      {"faces", "emotion"}, 0.3, 7,
                      "BEiT-base fine-tuned on FER-2013 facial expression "
                      "recognition."));
  }
  // --- Poolformer family. ---
  specs.push_back(M("sail/poolformer_m36", d, "poolformer", 56, 0.70,
                    kImagenet1k, {}, 0.0, 64, "PoolFormer-M36."));
  specs.push_back(M("sail/poolformer_m48", d, "poolformer", 73, 0.71,
                    kImagenet1k, {}, 0.0, 64, "PoolFormer-M48."));
  specs.push_back(M("sail/poolformer_s36", d, "poolformer", 31, 0.67,
                    kImagenet1k, {}, 0.0, 64, "PoolFormer-S36."));
  // --- DiNAT family. ---
  specs.push_back(M("shi-labs/dinat-base-in1k-224", d, "dinat", 90, 0.76,
                    kImagenet1k, {}, 0.0, 64, "DiNAT-base on ImageNet-1k."));
  specs.push_back(M("shi-labs/dinat-large-in22k-in1k-224", d, "dinat", 200,
                    0.85, kImagenet21k, {}, 0.0, 64,
                    "DiNAT-large pre-trained on ImageNet-22k, fine-tuned on "
                    "ImageNet-1k."));
  specs.push_back(M("shi-labs/dinat-large-in22k-in1k-384", d, "dinat", 200,
                    0.86, kImagenet21k, {}, 0.0, 64,
                    "DiNAT-large at 384px resolution."));
  // --- Visual Attention Network. ---
  specs.push_back(M("Visual-Attention-Network/van-base", d, "van", 27, 0.73,
                    kImagenet1k, {}, 0.0, 64, "VAN-base."));
  specs.push_back(M("Visual-Attention-Network/van-large", d, "van", 45, 0.77,
                    kImagenet1k, {}, 0.0, 64, "VAN-large."));
  // --- Off-domain fine-tunes (CV long tail). ---
  specs.push_back(M("oschamp/vit-artworkclassifier", d, "vit", 86, 0.65,
                    kImagenet1k, {"art", "paintings"}, 0.5, 10,
                    "ViT fine-tuned to classify artwork styles."));
  specs.push_back(M("nateraw/vit-age-classifier", d, "vit", 86, 0.68,
                    kImagenet21k, {"faces", "age"}, 0.3, 8,
                    "ViT fine-tuned to predict age brackets from faces."));
  specs.push_back(M("mrgiraffe/vit-large-dataset-model-v3", d, "vit", 300,
                    0.60, kImagenet1k, {"web", "mixed"}, 0.4, 12,
                    "A community ViT-large of uncertain provenance."));
  return specs;
}

StatusOr<ModelZoo> PaperZoo(TaskDomain domain) {
  if (domain == TaskDomain::kNLP) {
    static const StatusOr<ModelZoo> nlp = ModelZoo::Create(NlpPaperZooSpecs());
    return nlp;
  }
  static const StatusOr<ModelZoo> cv = ModelZoo::Create(CvPaperZooSpecs());
  return cv;
}

ZooTagVocabulary SyntheticTagVocabulary(TaskDomain domain) {
  const bool nlp = domain == TaskDomain::kNLP;
  ZooTagVocabulary vocab;
  vocab.families =
      nlp ? std::vector<std::string>{"bert", "roberta", "albert",
                                     "distilbert", "mbert", "electra"}
          : std::vector<std::string>{"vit", "beit", "deit", "convnext",
                                     "swin", "poolformer"};
  vocab.corpora =
      nlp ? std::vector<std::vector<std::string>>{kBertCorpus, kRobertaCorpus,
                                                  kMultilingualCorpus,
                                                  kArabicCorpus}
          : std::vector<std::vector<std::string>>{kImagenet1k, kImagenet21k};
  vocab.finetunes =
      nlp ? std::vector<std::vector<std::string>>{
                {}, kQqpTags, kColaTags, kQnliTags, kMnliTags, kSst2Tags,
                {"english", "sentiment", "reviews"},
                {"english", "topic", "encyclopedia"},
                {"multilingual", "nli"}}
          : std::vector<std::vector<std::string>>{
                {}, {"faces", "emotion"}, {"art", "paintings"},
                {"natural-images", "food"}, {"digits", "grayscale"},
                {"medical", "biomedical"}};
  return vocab;
}

std::vector<ModelSpec> SyntheticZooSpecs(TaskDomain domain, size_t count,
                                         uint64_t seed) {
  Rng rng(latent::CombineSeeds(seed, latent::HashString("synthetic-zoo")));
  const bool nlp = domain == TaskDomain::kNLP;
  const ZooTagVocabulary vocab = SyntheticTagVocabulary(domain);
  const std::vector<std::string>& families = vocab.families;
  const std::vector<std::vector<std::string>>& corpora = vocab.corpora;
  const std::vector<std::vector<std::string>>& finetunes = vocab.finetunes;

  std::vector<ModelSpec> specs;
  specs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const std::string family = families[rng.UniformInt(families.size())];
    const auto& corpus = corpora[rng.UniformInt(corpora.size())];
    const auto& ft = finetunes[rng.UniformInt(finetunes.size())];
    // Capability distribution is skewed low: most repository models are
    // mediocre, a few are strong (the Fig. 1 shape).
    const double u = rng.Uniform();
    const double capability = 0.35 + 0.5 * u * u;
    ModelSpec spec = M(
        strings::Format("synthetic/%s-%s-%zu", nlp ? "nlp" : "cv",
                        family.c_str(), i),
        domain, family, rng.Uniform(10.0, 350.0), capability, corpus, ft,
        ft.empty() ? 0.0 : 0.5,
        ft.empty() ? 16 : static_cast<int>(2 + rng.UniformInt(8)),
        "Synthetic zoo member for scaling experiments.");
    specs.push_back(std::move(spec));
  }
  return specs;
}

}  // namespace tps
